"""XML documents for complex objects: emit and parse.

Emitting walks the object once and appends each element's line, in the
order mlfd.dtd declares them; the object model mirrors that DTD, so no
content model is consulted and no element tree is built.

The canonical form, written from the parts `tag_lines` renders (by `Lines`
and by export's plan), is fixed so that equal trees give byte-identical
text: a standard prolog, a DOCTYPE naming the root, two-space indentation,
one element per line with leaf content inline, `<T/>` for an element with
no text or children, LF line endings, ``& < >`` escaped, and CR written as
``&#13;``. Documents carry no attributes, namespaces, processing
instructions or comments.
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
INDENT = "  "   # one nesting level


def xml_escape(text: str) -> str:
    # a literal CR would be folded into LF by the parser (XML 1.0 section
    # 2.11); a character reference survives that
    if "&" in text or "<" in text or ">" in text or "\r" in text:
        return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
                .replace("\r", "&#13;"))
    return text


# -- canonical formatting ------------------------------------------------------


def tag_lines(tag: str, pad: str) -> tuple:
    """`tag`'s open line at indentation `pad`, its close tag (which ends a
    leaf's line or follows `pad`), and its line when it holds nothing."""
    return f"{pad}<{tag}>", f"</{tag}>", f"{pad}<{tag}/>"


class Lines:
    """A canonical document's lines, indented by the elements open around
    them. ``with lines.element(tag):`` wraps its block's lines in `tag`; a
    block writes at least one, as an element with none is `leaf`'s `<T/>`."""

    def __init__(self):
        self.lines = []
        self.pad = ""
        self.opened = []   # (tag_lines, pad, here) per open element
        # pad -> {tag: tag_lines(tag, pad)}: a line costs one dict hit, not a call
        self.by_pad = {"": {}}
        self.here = self.by_pad[""]

    def leaf(self, tag: str, text: str | None) -> None:
        """`<T>text</T>`, or `<T/>` when the text is empty or None."""
        parts = self.here.get(tag) or self.here.setdefault(tag, tag_lines(tag, self.pad))
        self.lines.append(f"{parts[0]}{xml_escape(text)}{parts[1]}" if text else parts[2])

    def element(self, tag: str) -> Lines:
        parts = self.here.get(tag) or self.here.setdefault(tag, tag_lines(tag, self.pad))
        self.lines.append(parts[0])
        self.opened.append((parts, self.pad, self.here))
        self.pad = pad = self.pad + INDENT
        self.here = self.by_pad.get(pad) or self.by_pad.setdefault(pad, {})
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        """Close the innermost element, which must hold a line."""
        parts, self.pad, self.here = self.opened.pop()
        self.lines.append(self.pad + parts[1])

    def document(self, root_tag: str, system_id: str) -> str:
        """The prolog, the DOCTYPE and the lines, each ending on LF."""
        return (f'<?xml version="1.0" encoding="UTF-8"?>\n'
                f'<!DOCTYPE {root_tag} SYSTEM "{system_id}">\n'
                + "\n".join(self.lines) + "\n")


# -- object -> lines -------------------------------------------------------------

# outside XML 1.0's Char production (section 2.2): no escape can write these
_NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _payload_lines(out: Lines, payload) -> None:
    if isinstance(payload, m.TextPayload):
        with out.element("TEXT"):
            out.leaf("NB_CHAR", str(payload.nb_char))
            out.leaf("NB_LINES", str(payload.nb_lines))
            body = payload.body
            if isinstance(body, m.PlainText):
                out.leaf("PLAIN_TEXT", body.content)
            else:
                with out.element("TAGGED_TEXT"):
                    out.leaf("CONTENT", body.content)
                    for link in body.links:
                        out.leaf("LINK", link)
    elif isinstance(payload, m.RelationalView):
        with out.element("RELATIONAL_VIEW"):
            if payload.query is not None:
                out.leaf("QUERY", payload.query)
            for a in payload.attributes:
                with out.element("ATTRIBUTE"):
                    out.leaf("ATT_NAME", a.att_name)
                    out.leaf("DOMAIN", a.domain)
            for t in payload.tuples:
                with out.element("TUPLE"):
                    for c in t.cells:
                        out.leaf("ATT_NAME_REF", c.att_name_ref)
                        out.leaf("VALUE", c.value)
    elif isinstance(payload, m.ImageMeta):
        with out.element("IMAGE"):
            out.leaf("COMPRESSION", payload.compression)
            out.leaf("FORMAT", payload.format)
            out.leaf("RESOLUTION", payload.resolution)
            out.leaf("LENGTH", str(payload.length))
            out.leaf("WIDTH", str(payload.width))
    elif isinstance(payload, m.ContinuousMeta):
        with out.element("CONTINUOUS"):
            out.leaf("DURATION", payload.duration)
            out.leaf("SPEED", payload.speed)
            out.leaf("SOUND" if isinstance(payload.media, m.Sound) else "VIDEO",
                     payload.media.ref)
    else:
        raise ModelViolation(f"unknown payload variant {type(payload).__name__}")


def serialize(obj: m.ComplexObject, schema: DtdSchema,
              system_id: str = DEFAULT_SYSTEM_ID) -> str:
    """Emit the canonical document for an object.

    Children follow the DTD's declared order, taken from the object model,
    which mirrors the bundled DTD field for field; ``schema`` is that DTD's
    schema and is not walked. A scalar the object does not carry (for
    example an image with no recorded format) is emitted as an empty
    element rather than dropped; an unset LANGUAGE or QUERY, both optional,
    is left out. A character outside XML 1.0's ``Char`` raises
    UnrepresentableCharacter naming the element that holds it.
    """
    out = Lines()
    with out.element("COMPLEX_OBJECT"):
        out.leaf("OBJ_NAME", obj.obj_name)
        out.leaf("DATE", obj.date.isoformat())
        out.leaf("SOURCE", obj.source)
        for subdoc in obj.subdocuments:
            with out.element("SUBDOCUMENT"):
                out.leaf("DOC_NAME", subdoc.doc_name)
                out.leaf("TYPE", subdoc.type)
                out.leaf("SIZE", str(subdoc.size))
                out.leaf("LOCATION", subdoc.location)
                if subdoc.language is not None:
                    out.leaf("LANGUAGE", subdoc.language)
                for kw in subdoc.keywords:
                    out.leaf("KEYWORD", kw)
                _payload_lines(out, subdoc.payload)
    text = out.document("COMPLEX_OBJECT", system_id)
    bad = _NOT_XML_CHAR.search(text)
    if bad is not None:
        # escaped text holds no "<": the last one before the character opens its element
        start = text.rfind("<", 0, bad.start()) + 1
        raise UnrepresentableCharacter(
            "DOCTYPE" if _NOT_XML_CHAR.search(system_id)
            else text[start:text.index(">", start)], bad.group())
    return text


# -- parsing ------------------------------------------------------------------------


@dataclass
class Document:
    root: ET.Element
    doctype: str | None


# the DOCTYPE's name, read past a byte order mark, whitespace, PIs (the XML
# declaration among them) and comments; each part matches in one way only,
# so a prolog with no DOCTYPE fails in time linear in its length
_DOCTYPE = re.compile(r"\ufeff?(?:\s|<\?(?:[^?]|\?(?!>))*\?>|<!--(?:[^-]|-(?!-))*-->)*"
                      r"<!DOCTYPE\s+([^\s\[>]+)")


_SLICE = 1 << 16   # characters encoded and fed to the parser at a time
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _parse(text: str, size: int) -> ET.Element:
    """`text` parsed as UTF-8, encoded and fed `size` characters at a time."""
    parser = ET.XMLParser(encoding="utf-8")
    for start in range(0, len(text), size):
        parser.feed(text[start:start + size].encode())
    return parser.close()


def parse_document(text: str) -> Document:
    """Parse well-formed XML into an element tree.

    The text is read as UTF-8 whatever its declaration names. It is
    encoded and fed in slices of 64 Ki characters, each dropped once fed,
    so no UTF-8 copy of the whole text is made or left on it; only a text
    that is not well-formed is fed again whole, for its error. A lone
    surrogate is not well-formed. Comments and processing instructions are
    skipped; attributes are not part of the document shape this package
    produces and are rejected.
    """
    try:
        try:
            root = _parse(text, _SLICE)
        except ET.ParseError:
            # after the root, expat reports a token or a CRLF cut between two
            # feeds unlike the same one fed whole: report what the whole gives
            root = _parse(text, len(text) + 1)
    except ET.ParseError as exc:
        line = exc.position[0] if exc.position else 0
        raise NotWellFormed(line, str(exc)) from None
    except UnicodeEncodeError:
        # LF, CRLF and CR each end a line, as the parser counts them
        at = _SURROGATE.search(text).start()
        line = text.count("\n", 0, at) + text.count("\r", 0, at) - text.count("\r\n", 0, at)
        raise NotWellFormed(line + 1, f"U+{ord(text[at]):04X} is a lone surrogate, "
                                      "which XML 1.0 cannot represent") from None
    for element in root.iter():
        if element.keys():
            raise UnsupportedConstruct(
                "attribute",
                f"element {element.tag} carries attributes "
                + ", ".join(sorted(element.attrib)))
    doctype = _DOCTYPE.match(text)
    return Document(root=root, doctype=doctype and doctype.group(1))
