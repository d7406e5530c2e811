"""XML documents for complex objects: emit, parse, rebuild.

The canonical form is fixed so that equal trees give byte-identical text:
a standard prolog, a DOCTYPE naming the root, two-space indentation, one
element per line with leaf content inline, LF line endings, ``& < >``
escaped, and CR written as ``&#13;``. Documents carry no attributes,
namespaces, processing instructions or comments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from xml.etree import ElementTree as ET

from . import model as m
from .dtd import DtdSchema, PCData, ElementRef, Sequence, Choice, Repeat, nullable
from .errors import ModelViolation, NotWellFormed, UnsupportedConstruct

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


# -- object -> value nodes -------------------------------------------------------
#
# A value node is (name, text) for leaves and (name, [nodes]) for elements
# with children; the arranger below orders children by the content model.


def _payload_node(payload):
    if isinstance(payload, m.TextPayload):
        body = payload.body
        if isinstance(body, m.PlainText):
            inner = [("PLAIN_TEXT", body.content)]
        else:
            inner = [("TAGGED_TEXT",
                      [("CONTENT", body.content)] + [("LINK", l) for l in body.links])]
        return ("TEXT", [("NB_CHAR", str(payload.nb_char)),
                         ("NB_LINES", str(payload.nb_lines))] + inner)
    if isinstance(payload, m.RelationalView):
        kids = []
        if payload.query is not None:
            kids.append(("QUERY", payload.query))
        for a in payload.attributes:
            kids.append(("ATTRIBUTE", [("ATT_NAME", a.att_name), ("DOMAIN", a.domain)]))
        for t in payload.tuples:
            cells = []
            for c in t.cells:
                cells.append(("ATT_NAME_REF", c.att_name_ref))
                cells.append(("VALUE", c.value))
            kids.append(("TUPLE", cells))
        return ("RELATIONAL_VIEW", kids)
    if isinstance(payload, m.ImageMeta):
        kids = []
        if payload.compression is not None:
            kids.append(("COMPRESSION", payload.compression))
        if payload.format is not None:
            kids.append(("FORMAT", payload.format))
        if payload.resolution is not None:
            kids.append(("RESOLUTION", payload.resolution))
        kids.append(("LENGTH", str(payload.length)))
        kids.append(("WIDTH", str(payload.width)))
        return ("IMAGE", kids)
    if isinstance(payload, m.ContinuousMeta):
        media = payload.media
        tag = "SOUND" if isinstance(media, m.Sound) else "VIDEO"
        return ("CONTINUOUS", [("DURATION", payload.duration),
                               ("SPEED", payload.speed),
                               (tag, media.ref)])
    raise ModelViolation(f"unknown payload variant {type(payload).__name__}")


def _object_node(obj: m.ComplexObject):
    kids = [("OBJ_NAME", obj.obj_name),
            ("DATE", obj.date.isoformat()),
            ("SOURCE", obj.source)]
    for sub in obj.subdocuments:
        sk = [("DOC_NAME", sub.doc_name),
              ("TYPE", sub.type),
              ("SIZE", str(sub.size)),
              ("LOCATION", sub.location)]
        if sub.language is not None:
            sk.append(("LANGUAGE", sub.language))
        for kw in sub.keywords:
            sk.append(("KEYWORD", kw))
        sk.append(_payload_node(sub.payload))
        kids.append(("SUBDOCUMENT", sk))
    return ("COMPLEX_OBJECT", kids)


# -- schema-driven arrangement -----------------------------------------------------


def _can_start(model, queues) -> bool:
    if isinstance(model, ElementRef):
        return bool(queues.get(model.name))
    if isinstance(model, Sequence):
        for part in model.parts:
            if _can_start(part, queues):
                return True
            if not nullable(part):
                return False
        return False
    if isinstance(model, Choice):
        return any(_can_start(a, queues) for a in model.alternatives)
    if isinstance(model, Repeat):
        return _can_start(model.inner, queues)
    return False


def _arrange(name, payload, schema: DtdSchema) -> ET.Element:
    model = schema.elements.get(name)
    if model is None:
        raise ModelViolation(f"element {name} is not declared in the schema")
    element = ET.Element(name)
    if isinstance(model, PCData):
        if isinstance(payload, list):
            raise ModelViolation(f"{name} holds character data, not child elements")
        element.text = payload
        return element
    if not isinstance(payload, list):
        raise ModelViolation(f"{name} holds child elements, not character data")

    queues: dict[str, deque] = {}
    for node in payload:
        queues.setdefault(node[0], deque()).append(node)

    def emit(part):
        if isinstance(part, ElementRef):
            queue = queues.get(part.name)
            if queue:
                child_name, child_payload = queue.popleft()
                element.append(_arrange(child_name, child_payload, schema))
            elif schema.is_leaf(part.name):
                # missing value: an empty element stands in
                element.append(ET.Element(part.name))
            else:
                raise ModelViolation(f"required element {part.name} missing under {name}")
        elif isinstance(part, Sequence):
            for p in part.parts:
                emit(p)
        elif isinstance(part, Choice):
            for alt in part.alternatives:
                if _can_start(alt, queues):
                    emit(alt)
                    return
            raise ModelViolation(
                f"no alternative of a choice under {name} is present")
        elif isinstance(part, Repeat):
            if part.mult == "?":
                if _can_start(part.inner, queues):
                    emit(part.inner)
            elif part.mult == "*":
                while _can_start(part.inner, queues):
                    emit(part.inner)
            else:  # "+": at least one instance, then as many as remain
                emit(part.inner)
                while _can_start(part.inner, queues):
                    emit(part.inner)
        else:
            raise ModelViolation(f"cannot emit against {part!r}")

    emit(model)
    leftover = [n for n, q in queues.items() if q]
    if leftover:
        raise ModelViolation(
            f"{name} has children the content model does not allow: "
            + ", ".join(sorted(leftover)))
    return element


def build_tree(obj: m.ComplexObject, schema: DtdSchema) -> ET.Element:
    name, payload = _object_node(obj)
    return _arrange(name, payload, schema)


def serialize(obj: m.ComplexObject, schema: DtdSchema,
              system_id: str = DEFAULT_SYSTEM_ID) -> str:
    """Emit the canonical document for an object.

    Children follow the schema's declared order. A scalar the object does
    not carry (for example an image with no recorded format) is emitted as
    an empty element rather than dropped.
    """
    return format_document(build_tree(obj, schema), system_id)


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
