"""Reference implementations that the package's faster code is compared against.

The recursive backtracker yields every way a content model matches a run
of child names, in the order a backtracking search tries them: repeats
greedy, alternatives in order, zero-width iterations skipped. Each way is
given as the decisions that choose it. The first full match is the answer,
and a failure reports the deepest position reached with the names expected
there. Its recursion depth grows with the number of children and its time
can be exponential, so it serves only as the oracle that `multiform.dtd`'s
position automaton is compared against.

The schema-driven serializer maps an object to value nodes and orders each
element's children by walking its content model, filling a missing leaf
with an empty element. `multiform.xmldoc.serialize` writes children
straight from the object in declared order and must give the same bytes.

`format_document` renders an element tree in the canonical form through
the serializer's line writer, so a test can compare any tree's text with
what `serialize` or `export` wrote.

`to_object` rebuilds the typed object from a valid document tree, so a
test can check that what `serialize` wrote reads back as the same object.
"""

from collections import deque
from xml.etree import ElementTree as ET

from multiform import model as m
from multiform.dtd import (
    ITERATE,
    STOP,
    Choice,
    ElementRef,
    PCData,
    Repeat,
    Sequence,
    nullable,
)
from multiform.errors import ModelViolation
from multiform.xmldoc import DEFAULT_SYSTEM_ID, Lines


class Failure:
    """Deepest failure position and the names that would have matched there."""

    def __init__(self):
        self.pos = -1
        self.expected = set()

    def note(self, pos, name):
        if pos > self.pos:
            self.pos = pos
            self.expected = {name}
        elif pos == self.pos:
            self.expected.add(name)


def matches(model, names, pos, fail):
    """Yield (end position, decisions) for every way model matches names[pos:].

    The decisions are those `multiform.dtd` records, in model order: the index
    of each alternative chosen, and ITERATE or STOP before each iteration of
    a repeat ("?" decides once).
    """
    if isinstance(model, ElementRef):
        if pos < len(names) and names[pos] == model.name:
            yield pos + 1, ()
        else:
            fail.note(pos, model.name)
    elif isinstance(model, Sequence):
        def seq(k, at):
            if k == len(model.parts):
                yield at, ()
                return
            for p1, d1 in matches(model.parts[k], names, at, fail):
                for p2, rest in seq(k + 1, p1):
                    yield p2, d1 + rest
        yield from seq(0, pos)
    elif isinstance(model, Choice):
        for k, alt in enumerate(model.alternatives):
            for end, taken in matches(alt, names, pos, fail):
                yield end, (k,) + taken
    elif isinstance(model, Repeat):
        if model.mult == "?":
            for end, taken in matches(model.inner, names, pos, fail):
                if end > pos:
                    yield end, (ITERATE,) + taken
            yield pos, (STOP,)
        else:
            def reps(at, acc):
                for end, taken in matches(model.inner, names, at, fail):
                    if end > at:  # zero-width iterations add nothing
                        yield from reps(end, acc + (ITERATE,) + taken)
                yield at, acc
            allow_empty = model.mult == "*" or nullable(model.inner)
            for end, acc in reps(pos, ()):
                if acc or allow_empty:
                    yield end, acc + (STOP,)
    else:
        raise TypeError(f"cannot match against {model!r}")


def match_children(model, names, fail=None):
    """Decisions of the first full match of the child name sequence, or None."""
    if fail is None:
        fail = Failure()
    for end, decisions in matches(model, names, 0, fail):
        if end == len(names):
            return decisions
        fail.note(end, "end of children")
    return None


# -- schema-driven serializer ----------------------------------------------------
#
# A value node is (name, text) for leaves and (name, [nodes]) for elements
# with children; arrange() orders children by the content model.


def payload_node(payload):
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


def object_node(obj):
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
        sk.append(payload_node(sub.payload))
        kids.append(("SUBDOCUMENT", sk))
    return ("COMPLEX_OBJECT", kids)


def can_start(model, queues) -> bool:
    if isinstance(model, ElementRef):
        return bool(queues.get(model.name))
    if isinstance(model, Sequence):
        for part in model.parts:
            if can_start(part, queues):
                return True
            if not nullable(part):
                return False
        return False
    if isinstance(model, Choice):
        return any(can_start(a, queues) for a in model.alternatives)
    if isinstance(model, Repeat):
        return can_start(model.inner, queues)
    return False


def arrange(name, payload, schema) -> ET.Element:
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
                element.append(arrange(child_name, child_payload, schema))
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
                if can_start(alt, queues):
                    emit(alt)
                    return
            raise ModelViolation(
                f"no alternative of a choice under {name} is present")
        elif isinstance(part, Repeat):
            if part.mult == "?":
                if can_start(part.inner, queues):
                    emit(part.inner)
            elif part.mult == "*":
                while can_start(part.inner, queues):
                    emit(part.inner)
            else:  # "+": at least one instance, then as many as remain
                emit(part.inner)
                while can_start(part.inner, queues):
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


def format_document(root, system_id=DEFAULT_SYSTEM_ID) -> str:
    """Render an element tree in the canonical form."""
    out = Lines()

    def walk(element):
        if len(element) == 0:
            out.leaf(element.tag, element.text)
        else:
            with out.element(element.tag):
                for child in element:
                    walk(child)

    walk(root)
    return out.document(root.tag, system_id)


def serialize(obj, schema, system_id=DEFAULT_SYSTEM_ID) -> str:
    """The canonical document, children ordered by walking the schema."""
    name, payload = object_node(obj)
    return format_document(arrange(name, payload, schema), system_id)


# -- document -> object -----------------------------------------------------------


def _text(element):
    return element.text or ""


def _opt(element):
    """Empty element -> None; used for fields the extractors leave unset."""
    return element.text if element.text else None


def to_object(root):
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


def _payload_from(sub):
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
