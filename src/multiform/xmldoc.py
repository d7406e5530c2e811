"""XML documents for complex objects: emit, parse, rebuild.

Emitting walks the object once and appends each element's children in the
order mlfd.dtd declares them; the object model mirrors that DTD, so no
content model is consulted.

The canonical form is fixed so that equal trees give byte-identical text:
a standard prolog, a DOCTYPE naming the root, two-space indentation, one
element per line with leaf content inline, LF line endings, ``& < >``
escaped, and CR written as ``&#13;``. Documents carry no attributes,
namespaces, processing instructions or comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from xml.etree import ElementTree as ET

from . import model as m
from .dtd import DtdSchema
from .errors import (
    ModelViolation,
    NotWellFormed,
    UnrepresentableCharacter,
    UnsupportedConstruct,
)

DEFAULT_SYSTEM_ID = "mlfd.dtd"


def xml_escape(text: str) -> str:
    # a literal CR would be folded into LF by the parser (XML 1.0 section
    # 2.11); a character reference survives that
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace("\r", "&#13;"))


# -- canonical formatting ------------------------------------------------------


def format_document(root: ET.Element, system_id: str = DEFAULT_SYSTEM_ID) -> str:
    """Render an element tree in the canonical form."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<!DOCTYPE {root.tag} SYSTEM "{system_id}">',
    ]

    def walk(element, depth):
        pad = "  " * depth
        if len(element) == 0:
            text = element.text or ""
            if text:
                lines.append(f"{pad}<{element.tag}>{xml_escape(text)}</{element.tag}>")
            else:
                lines.append(f"{pad}<{element.tag}/>")
        else:
            lines.append(f"{pad}<{element.tag}>")
            for child in element:
                walk(child, depth + 1)
            lines.append(f"{pad}</{element.tag}>")

    walk(root, 0)
    return "\n".join(lines) + "\n"


# -- object -> element tree ------------------------------------------------------
#
# The object model mirrors mlfd.dtd field for field, so children are appended
# in the order the DTD declares them. An unset image scalar is written as an
# empty element; an unset LANGUAGE or QUERY, both optional, is left out.


def _payload_into(sub: ET.Element, payload) -> None:
    if isinstance(payload, m.TextPayload):
        text = ET.SubElement(sub, "TEXT")
        ET.SubElement(text, "NB_CHAR").text = str(payload.nb_char)
        ET.SubElement(text, "NB_LINES").text = str(payload.nb_lines)
        body = payload.body
        if isinstance(body, m.PlainText):
            ET.SubElement(text, "PLAIN_TEXT").text = body.content
        else:
            tagged = ET.SubElement(text, "TAGGED_TEXT")
            ET.SubElement(tagged, "CONTENT").text = body.content
            for link in body.links:
                ET.SubElement(tagged, "LINK").text = link
    elif isinstance(payload, m.RelationalView):
        view = ET.SubElement(sub, "RELATIONAL_VIEW")
        if payload.query is not None:
            ET.SubElement(view, "QUERY").text = payload.query
        for a in payload.attributes:
            attribute = ET.SubElement(view, "ATTRIBUTE")
            ET.SubElement(attribute, "ATT_NAME").text = a.att_name
            ET.SubElement(attribute, "DOMAIN").text = a.domain
        for t in payload.tuples:
            row = ET.SubElement(view, "TUPLE")
            for c in t.cells:
                ET.SubElement(row, "ATT_NAME_REF").text = c.att_name_ref
                ET.SubElement(row, "VALUE").text = c.value
    elif isinstance(payload, m.ImageMeta):
        image = ET.SubElement(sub, "IMAGE")
        ET.SubElement(image, "COMPRESSION").text = payload.compression
        ET.SubElement(image, "FORMAT").text = payload.format
        ET.SubElement(image, "RESOLUTION").text = payload.resolution
        ET.SubElement(image, "LENGTH").text = str(payload.length)
        ET.SubElement(image, "WIDTH").text = str(payload.width)
    elif isinstance(payload, m.ContinuousMeta):
        continuous = ET.SubElement(sub, "CONTINUOUS")
        ET.SubElement(continuous, "DURATION").text = payload.duration
        ET.SubElement(continuous, "SPEED").text = payload.speed
        tag = "SOUND" if isinstance(payload.media, m.Sound) else "VIDEO"
        ET.SubElement(continuous, tag).text = payload.media.ref
    else:
        raise ModelViolation(f"unknown payload variant {type(payload).__name__}")


def _object_tree(obj: m.ComplexObject) -> ET.Element:
    root = ET.Element("COMPLEX_OBJECT")
    ET.SubElement(root, "OBJ_NAME").text = obj.obj_name
    ET.SubElement(root, "DATE").text = obj.date.isoformat()
    ET.SubElement(root, "SOURCE").text = obj.source
    for subdoc in obj.subdocuments:
        sub = ET.SubElement(root, "SUBDOCUMENT")
        ET.SubElement(sub, "DOC_NAME").text = subdoc.doc_name
        ET.SubElement(sub, "TYPE").text = subdoc.type
        ET.SubElement(sub, "SIZE").text = str(subdoc.size)
        ET.SubElement(sub, "LOCATION").text = subdoc.location
        if subdoc.language is not None:
            ET.SubElement(sub, "LANGUAGE").text = subdoc.language
        for kw in subdoc.keywords:
            ET.SubElement(sub, "KEYWORD").text = kw
        _payload_into(sub, subdoc.payload)
    return root


# outside XML 1.0's Char production (section 2.2): no escape can write these
_NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def serialize(obj: m.ComplexObject, schema: DtdSchema,
              system_id: str = DEFAULT_SYSTEM_ID) -> str:
    """Emit the canonical document for an object.

    Children follow the DTD's declared order, taken from the object model,
    which mirrors the bundled DTD; ``schema`` is that DTD's schema and is
    not walked. A scalar the object does not carry (for example an image
    with no recorded format) is emitted as an empty element rather than
    dropped. A character outside XML 1.0's ``Char`` raises
    UnrepresentableCharacter naming the element that holds it.
    """
    root = _object_tree(obj)
    text = format_document(root, system_id)
    bad = _NOT_XML_CHAR.search(text)
    if bad is not None:
        for element in root.iter():
            found = _NOT_XML_CHAR.search(element.text or "")
            if found is not None:
                raise UnrepresentableCharacter(element.tag, found.group())
        raise UnrepresentableCharacter("DOCTYPE", bad.group())
    return text


# -- parsing ------------------------------------------------------------------------


@dataclass
class Document:
    root: ET.Element
    doctype: str | None


class _Builder(ET.TreeBuilder):
    """Tree builder that keeps the doctype name (everything else is dropped)."""

    def __init__(self):
        super().__init__()
        self.doctype_name = None

    def doctype(self, name, pubid, system):
        self.doctype_name = name


def parse_document(text: str) -> Document:
    """Parse well-formed XML into an element tree.

    Comments and processing instructions are skipped; attributes are not
    part of the document shape this package produces and are rejected.
    """
    builder = _Builder()
    parser = ET.XMLParser(target=builder)
    try:
        parser.feed(text)
        root = parser.close()
    except ET.ParseError as exc:
        line = exc.position[0] if exc.position else 0
        raise NotWellFormed(line, str(exc)) from None
    for element in root.iter():
        if element.attrib:
            raise UnsupportedConstruct(
                "attribute",
                f"element {element.tag} carries attributes "
                + ", ".join(sorted(element.attrib)))
    return Document(root=root, doctype=builder.doctype_name)


# -- reconstruction -------------------------------------------------------------------


def _text(element) -> str:
    return element.text or ""


def _opt(element) -> str | None:
    """Empty element -> None; used for fields the extractors leave unset."""
    return element.text if element.text else None


def to_object(root: ET.Element) -> m.ComplexObject:
    """Rebuild the typed object from a valid document tree.

    Empty FORMAT/COMPRESSION/RESOLUTION elements map back to unset fields,
    mirroring how missing values are emitted.
    """
    subdocs = []
    for sub in root.findall("SUBDOCUMENT"):
        language = sub.find("LANGUAGE")
        payload = _payload_from(sub)
        subdocs.append(m.Subdocument(
            doc_name=_text(sub.find("DOC_NAME")),
            size=int(_text(sub.find("SIZE"))),
            location=_text(sub.find("LOCATION")),
            payload=payload,
            language=None if language is None else _text(language),
            keywords=tuple(_text(k) for k in sub.findall("KEYWORD")),
            type=_text(sub.find("TYPE")),
        ))
    return m.make_complex_object(
        name=_text(root.find("OBJ_NAME")),
        date=_text(root.find("DATE")),
        source=_text(root.find("SOURCE")),
        subdocuments=subdocs,
    )


def _payload_from(sub: ET.Element):
    text = sub.find("TEXT")
    if text is not None:
        plain = text.find("PLAIN_TEXT")
        if plain is not None:
            body = m.PlainText(_text(plain))
        else:
            tagged = text.find("TAGGED_TEXT")
            body = m.TaggedText(
                content=_text(tagged.find("CONTENT")),
                links=tuple(_text(l) for l in tagged.findall("LINK")),
            )
        return m.TextPayload(nb_char=int(_text(text.find("NB_CHAR"))),
                             nb_lines=int(_text(text.find("NB_LINES"))),
                             body=body)
    view = sub.find("RELATIONAL_VIEW")
    if view is not None:
        query = view.find("QUERY")
        attributes = tuple(
            m.Attribute(att_name=_text(a.find("ATT_NAME")),
                        domain=_text(a.find("DOMAIN")))
            for a in view.findall("ATTRIBUTE"))
        tuples = []
        for t in view.findall("TUPLE"):
            cells = list(t)
            pairs = zip(cells[0::2], cells[1::2])
            tuples.append(m.ViewTuple(tuple(
                m.Cell(att_name_ref=_text(ref), value=_text(val))
                for ref, val in pairs)))
        return m.RelationalView(attributes=attributes, tuples=tuple(tuples),
                                query=None if query is None else _text(query))
    image = sub.find("IMAGE")
    if image is not None:
        return m.ImageMeta(
            length=int(_text(image.find("LENGTH"))),
            width=int(_text(image.find("WIDTH"))),
            format=_opt(image.find("FORMAT")),
            compression=_opt(image.find("COMPRESSION")),
            resolution=_opt(image.find("RESOLUTION")),
        )
    continuous = sub.find("CONTINUOUS")
    if continuous is not None:
        sound = continuous.find("SOUND")
        media = (m.Sound(_text(sound)) if sound is not None
                 else m.Video(_text(continuous.find("VIDEO"))))
        return m.ContinuousMeta(duration=_text(continuous.find("DURATION")),
                                speed=_text(continuous.find("SPEED")),
                                media=media)
    raise ModelViolation("subdocument carries no recognizable payload element")
