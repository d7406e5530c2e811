"""DTD parsing and document validation.

The accepted subset is element declarations only: sequences, choices and
the ``?``/``*``/``+`` multiplicities, plus ``(#PCDATA)`` leaves, also
written ``(#PCDATA)*``. Attribute lists, entities, notations, mixed content
and the EMPTY/ANY keywords are rejected; comments are skipped, and groups
nest at most MAX_GROUP_DEPTH deep. This is enough to express a content
model as an ordinary regular expression over child element names, so
validation is plain regular-language matching with a recorded failure
position. Errors are reported in text order, each with its line; CR, LF
and CRLF each end a line. Only XML 1.0's whitespace (S, section 2.3:
space, tab, CR and LF) separates tokens; a no-break space is an error.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources

from .errors import (
    DtdSyntaxError,
    DuplicateDeclaration,
    MixedContent,
    NoRootElement,
    UndeclaredReference,
)

# -- content model AST ---------------------------------------------------------


@dataclass(frozen=True)
class PCData:
    """Leaf marker: the element holds character data only."""


@dataclass(frozen=True)
class ElementRef:
    name: str


@dataclass(frozen=True)
class Sequence:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Choice:
    alternatives: tuple

    def __post_init__(self):
        object.__setattr__(self, "alternatives", tuple(self.alternatives))


@dataclass(frozen=True)
class Repeat:
    inner: object
    mult: str  # one of "?", "*", "+"


@dataclass(frozen=True)
class DtdSchema:
    names: tuple[str, ...]      # declaration order
    elements: dict              # name -> content model
    root: str

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))

    def is_leaf(self, name: str) -> bool:
        return isinstance(self.elements[name], PCData)

    @cached_property
    def _automata(self) -> dict:
        """Each element's content model compiled once: name -> _Automaton."""
        return {name: _Automaton(model) for name, model in self.elements.items()
                if not isinstance(model, PCData)}


# -- lexer ---------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\n]+)
      | (?P<comment><!--.*?-->)
      | (?P<element><!ELEMENT(?![-\w.:]))
      | (?P<decl><!-?[A-Za-z\[][-\w.:\[]*)
      | (?P<pcdata>\#PCDATA)
      | (?P<pe>%[^ \t\n>]*)
      | (?P<name>[A-Za-z_:][-\w.:]*)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<sep>[,|])
      | (?P<mult>[?*+])
      | (?P<gt>>)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokens(text: str):
    """The tokens, each (kind, text, line), then endless "end" tokens on the
    line of the last one before them. Each is lexed when the parser asks for
    it, so the first error in the text is the one raised."""
    pos = 0
    line = last = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DtdSyntaxError(line, "a DTD token", found=text[pos])
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            line += m.group().count("\n")
        else:
            yield kind, m.group(), line
            last = line
        pos = m.end()
    while True:
        yield "end", "end of input", last


# -- parser ----------------------------------------------------------------------

# Deepest group nesting a content model may have. Parsing, and every later
# walk of a model, recurses once or twice per level, so the cap keeps them
# all well inside Python's stack (libxml2's default limit is the same).
MAX_GROUP_DEPTH = 128


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.ahead = None       # the token peek() lexed, until next() takes it
        self.elements = {}      # name -> content model, in declaration order
        self.refs = []          # (element, referenced name), in text order

    def peek(self):
        if self.ahead is None:
            self.ahead = next(self.tokens)
        return self.ahead

    def next(self):
        tok = self.ahead
        if tok is None:
            return next(self.tokens)
        self.ahead = None
        return tok

    def expect(self, kind, what):
        tok = self.next()
        if tok[0] != kind:
            raise DtdSyntaxError(tok[2], what, found=tok[1])
        return tok

    def parse(self):
        while self.peek()[0] != "end":
            self.declaration()
        if not self.elements:
            raise DtdSyntaxError(1, "at least one <!ELEMENT declaration",
                                 found="end of input")
        return self.elements

    def declaration(self):
        kind, value, line = self.next()
        if kind == "pe":
            raise DtdSyntaxError(line, "<!ELEMENT (parameter entities are not supported)",
                                 found=value)
        if kind != "element":
            raise DtdSyntaxError(line, "<!ELEMENT", found=value)
        name = self.expect("name", "an element name")[1]
        if ":" in name:   # a document would read it as a namespace prefix
            raise DtdSyntaxError(line, "an element name without ':'", found=name)
        if name in self.elements:
            raise DuplicateDeclaration(name, line)
        self.elements[name] = self.model(name)
        self.expect("gt", ">")

    def model(self, element):
        kind, value, line = self.peek()
        if kind == "end":
            raise DtdSyntaxError(line, "a content model", found=value)
        if kind == "name" and value in ("EMPTY", "ANY"):
            raise DtdSyntaxError(line, f"a parenthesized content model "
                                       f"({value} is not supported)", found=value)
        base = self.group(element, 1)
        if isinstance(base, PCData):
            if self.peek()[1] == "*":   # (#PCDATA)* means (#PCDATA)
                self.next()
            return base
        return self.repeated(base)

    def group(self, element, depth):
        line = self.expect("lparen", "'('")[2]
        if depth > MAX_GROUP_DEPTH:
            raise DtdSyntaxError(line, f"groups nested at most {MAX_GROUP_DEPTH} deep",
                                 found="(")
        if self.peek()[0] == "pcdata":
            line = self.next()[2]
            if depth > 1 or self.peek()[1] == "|":
                raise MixedContent(element, line)
            self.expect("rparen", "')'")
            return PCData()
        parts = [self.particle(element, depth)]
        sep = None
        while True:
            kind, value, line = self.next()
            if kind == "rparen":
                break
            if kind != "sep":
                raise DtdSyntaxError(line, "',', '|' or ')'", found=value)
            if sep is None:
                sep = value
            elif value != sep:
                raise DtdSyntaxError(line, f"'{sep}'", found=value)
            parts.append(self.particle(element, depth))
        if sep == "|":
            return Choice(tuple(parts))
        if len(parts) == 1:
            return parts[0]
        flat = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, Sequence) else (p,))
        return Sequence(tuple(flat))

    def particle(self, element, depth):
        tok = self.peek()
        if tok[0] == "pcdata":
            raise MixedContent(element, tok[2])
        if tok[0] == "name":
            self.next()
            self.refs.append((element, tok[1]))
            base = ElementRef(tok[1])
        elif tok[0] == "lparen":
            base = self.group(element, depth + 1)
        else:
            raise DtdSyntaxError(tok[2], "an element name or '('", found=tok[1])
        return self.repeated(base)

    def repeated(self, base):
        """base, or base under the multiplicity that follows it."""
        tok = self.peek()
        if tok[0] == "mult":
            self.next()
            return Repeat(base, tok[1])
        return base


def parse_dtd(text: str) -> DtdSchema:
    """Parse element declarations into a schema.

    The root is the first declared element no other element references.
    A leading byte order mark is skipped.
    """
    # XML 1.0 section 2.11: CRLF and a lone CR each read as one LF
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    parser = _Parser(text)
    elements = parser.parse()
    for element, name in parser.refs:
        if name not in elements:
            raise UndeclaredReference(element, name)
    referenced = {name for _, name in parser.refs}
    for name in elements:
        if name not in referenced:
            return DtdSchema(names=tuple(elements), elements=elements, root=name)
    raise NoRootElement()


# -- pretty printer ---------------------------------------------------------------


def _render(model) -> str:
    if isinstance(model, ElementRef):
        return model.name
    if isinstance(model, Repeat):
        inner = _render(model.inner)
        if isinstance(model.inner, Repeat):  # (X?)* must not print as X?*
            inner = "(" + inner + ")"
        return inner + model.mult
    if isinstance(model, Sequence):
        return "(" + ", ".join(_render(p) for p in model.parts) + ")"
    if isinstance(model, Choice):
        return "(" + " | ".join(_render(a) for a in model.alternatives) + ")"
    raise TypeError(f"cannot render {model!r}")


def render_model(model) -> str:
    """Render a content model the way it appears in a declaration."""
    if isinstance(model, PCData):
        return "(#PCDATA)"
    if isinstance(model, (Sequence, Choice)):
        return _render(model)
    if isinstance(model, Repeat) and isinstance(model.inner, (Sequence, Choice)):
        return _render(model.inner) + model.mult
    # a bare reference (possibly repeated) still needs the outer parentheses
    return "(" + _render(model) + ")"


def format_dtd(schema: DtdSchema) -> str:
    """Print a schema as declarations; parsing the output yields an equal schema."""
    lines = [
        f"<!ELEMENT {name} {render_model(schema.elements[name])}>"
        for name in schema.names
    ]
    return "\n".join(lines) + "\n"


# -- content model matching ---------------------------------------------------------


def nullable(model) -> bool:
    if isinstance(model, ElementRef):
        return False
    if isinstance(model, Sequence):
        return all(nullable(p) for p in model.parts)
    if isinstance(model, Choice):
        return any(nullable(a) for a in model.alternatives)
    if isinstance(model, Repeat):
        return model.mult in ("?", "*") or nullable(model.inner)
    return True  # PCData


@dataclass(frozen=True)
class _Failure:
    """Where a match failed and the names that would have matched there."""

    pos: int
    expected: set


# A content model compiles to a position automaton (Glushkov; Brueggemann-Klein
# and Wood, "One-unambiguous regular languages", 1998): its states are the
# start and the model's element references, and each step consumes one child.
# Where a model matches the children in several ways, the match reported is
# the one a backtracking search finds first: repeats are greedy, the first
# alternative that leads to a full match wins, and an iteration that consumes
# nothing is never taken. A run keeps at most one thread per state, in that
# priority order (a Pike VM; R. Cox, "Regular Expression Matching: the
# Virtual Machine Approach", 2009), so it takes O(states x children) time and
# no stack that grows with the children.
#
# A thread records the decisions its path took, in the order a left-to-right
# walk of the model meets them: the index of each alternative chosen, and
# before each iteration of a repeat whether it iterates (ITERATE) or stops
# (STOP); a "?" decides once. The match is that flat tuple of decisions, and
# shred replays it over the element's table plan. A model without choices or
# repeats matches with no decisions at all, ().
#
# While the automaton is built and run, decisions are kept as chains of pairs,
# (last decision, earlier chain) with () for none, and match() flattens one
# into the tuple at the end. Paths that share a prefix share its storage, so
# each transition costs a constant: a tuple per transition would make the
# automaton of (E0?, ..., En?) hold O(n^3) decisions.

STOP, ITERATE = 0, 1
_ENTER, _EXIT = 0, 1
_START = -1


def _children(model):
    if isinstance(model, Sequence):
        return model.parts
    if isinstance(model, Choice):
        return model.alternatives
    if isinstance(model, Repeat):
        return (model.inner,)
    if isinstance(model, ElementRef):
        return ()
    raise TypeError(f"cannot match against {model!r}")


class _Automaton:
    """A content model compiled for matching; see match(). Each state is
    built when a run first reaches it (the lazy construction of RE2's DFA;
    R. Cox, "Regular Expression Matching in the Wild", 2010)."""

    def __init__(self, model):
        # number the model's nodes breadth first; the lists grow as they are read
        models, parents, slots, kids = [model], [-1], [0], []
        for n, node in enumerate(models):
            below = _children(node)
            kids.append(range(len(models), len(models) + len(below)))
            models.extend(below)
            parents.extend([n] * len(below))
            slots.extend(range(len(below)))
        self._tree = models, parents, slots, kids
        # per built state: child name -> [(next state, decision chain)], best
        # first, and the chain that ends the model there (None if it cannot
        # end there); accept is filled first, so a state in steps is in both
        self.steps, self.accept = {}, {}

    def _build(self, state):
        """Build one state's steps and accept chain, and return its steps."""
        models, parents, slots, kids = self._tree

        def closure(first):
            """Walk without consuming from one walk item; the element
            references reached (None for the end of the model), each with the
            decisions of its best path, best first."""
            arrivals = {}
            seen = set()
            stack = [first]
            while stack:
                kind, n, fresh, taken = stack.pop()
                # fresh: the repeats whose current iteration consumed nothing
                if (kind, n, fresh) in seen:
                    continue  # reached before by a path that takes priority
                seen.add((kind, n, fresh))
                node = models[n]
                if kind == _ENTER:
                    if isinstance(node, ElementRef):
                        arrivals.setdefault(n, taken)
                        continue
                    if isinstance(node, Sequence):
                        nxt = [(_ENTER, kids[n][0], fresh, taken)]
                    elif isinstance(node, Choice):
                        nxt = [(_ENTER, kid, fresh, (k, taken))
                               for k, kid in enumerate(kids[n])]
                    else:
                        nxt = [(_ENTER, kids[n][0], fresh | {n}, (ITERATE, taken))]
                        if node.mult != "+" or nullable(node.inner):
                            nxt.append((_EXIT, n, fresh, (STOP, taken)))
                else:
                    up = parents[n]
                    if up < 0:
                        arrivals.setdefault(None, taken)
                        continue
                    parent = models[up]
                    if isinstance(parent, Sequence) and slots[n] + 1 < len(kids[up]):
                        nxt = [(_ENTER, kids[up][slots[n] + 1], fresh, taken)]
                    elif not isinstance(parent, Repeat):
                        nxt = [(_EXIT, up, fresh, taken)]
                    elif up in fresh:
                        continue  # a zero-width iteration
                    elif parent.mult == "?":
                        nxt = [(_EXIT, up, fresh, taken)]
                    else:
                        nxt = [(_ENTER, n, fresh | {up}, (ITERATE, taken)),
                               (_EXIT, up, fresh, (STOP, taken))]
                stack.extend(reversed(nxt))
            return arrivals

        kind, n = (_ENTER, 0) if state == _START else (_EXIT, state)
        arrivals = closure((kind, n, frozenset(), ()))
        self.accept[state] = arrivals.pop(None, None)
        steps = {}
        for q, taken in arrivals.items():
            steps.setdefault(models[q].name, []).append((q, taken))
        self.steps[state] = steps
        return steps

    def match(self, names):
        """The decisions of the first match of the child name sequence, as a
        tuple, or a _Failure.

        A _Failure holds the first position no thread got past and every
        name, or "end of children", that was expected there; every state has
        a step or ends the model, so that set is never empty.
        """
        # threads: (state, the decision chains of its steps as a linked list,
        # last first), best first
        threads = [(_START, None)]
        built = self.steps
        for at, name in enumerate(names):
            advanced = []
            seen = set()
            for state, path in threads:
                steps = built.get(state)
                if steps is None:
                    steps = self._build(state)
                for q, taken in steps.get(name, ()):
                    if q not in seen:
                        seen.add(q)
                        advanced.append((q, (taken, path) if taken else path))
            if not advanced:
                return self._fail(threads, at, len(names))
            threads = advanced
        for state, path in threads:
            if state not in built:   # reached by the last child; _fail reads it too
                self._build(state)
            taken = self.accept[state]
            if taken is not None:
                decisions = []   # collected last to first
                while True:
                    while taken:
                        d, taken = taken
                        decisions.append(d)
                    if path is None:
                        return tuple(reversed(decisions))
                    taken, path = path
        return self._fail(threads, len(names), len(names))

    def _fail(self, threads, at, total):
        expected = set()
        for state, _ in threads:
            expected.update(self.steps[state])
            if at < total and self.accept[state] is not None:
                expected.add("end of children")
        return _Failure(at, expected)


# -- validation -------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    path: str
    message: str
    expected: str | None = None

    def __str__(self):
        tail = f" (expected {self.expected})" if self.expected else ""
        return f"{self.path}: {self.message}{tail}"


@dataclass(frozen=True)
class ValidationReport:
    document: object
    valid: bool
    violations: tuple[Violation, ...]
    # element -> the decisions of its children's match (see _Automaton), for
    # every element whose children matched its content model; shred replays
    # these instead of matching again
    matches: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "violations", tuple(self.violations))


def _child_paths(parent_path, names):
    """Path of each child; a name that repeats among siblings gets [k]."""
    total = Counter(names)
    seen = {}
    paths = []
    for name in names:
        if total[name] > 1:
            k = seen[name] = seen.get(name, 0) + 1
            paths.append(f"{parent_path}/{name}[{k}]")
        else:
            paths.append(f"{parent_path}/{name}")
    return paths


def validate(document, schema: DtdSchema) -> ValidationReport:
    """Check an element tree against the schema.

    The report lists every violation found, in document order; whitespace-only
    text between child elements is formatting and is ignored.
    """
    # A match depends only on the element's tag and its children's names, and
    # neither its decisions nor its failure names a child, so `shapes` keeps
    # each shape's outcome from its one match: the decisions, or the failure's
    # Violation, rendered once without a path, which every element of the
    # shape copies at its own path. A text leaf (a declared #PCDATA element
    # with no child elements) has nothing to check, so it gets neither a path
    # nor a visit. Elements are visited in document order from an explicit
    # stack, so depth costs no recursion.
    elements, automata = schema.elements, schema._automata
    out, matches, shapes = [], {}, {}
    path = "/" + document.tag
    if document.tag != schema.root:
        out.append(Violation(path, f"root element must be {schema.root}",
                             expected=schema.root))
    stack = [(document, path)] if document.tag in elements else []
    while stack:
        element, path = stack.pop()
        model = elements.get(element.tag)
        if model is None:
            out.append(Violation(path, f"element {element.tag} is not declared"))
            continue
        children = list(element)

        if isinstance(model, PCData):
            if children:
                out.append(Violation(path, "leaf element must not contain child elements",
                                     expected="(#PCDATA)"))
            continue

        if element.text and element.text.strip():
            out.append(Violation(path, "character data is not allowed between child elements",
                                 expected=render_model(model)))
        for child in children:
            if child.tail and child.tail.strip():
                out.append(Violation(path, "character data is not allowed between child elements",
                                     expected=render_model(model)))
                break

        names = [c.tag for c in children]
        shape = (element.tag, tuple(names))
        outcome = shapes.get(shape)
        if outcome is None:
            outcome = automata[element.tag].match(names)
            if isinstance(outcome, _Failure):
                at = outcome.pos
                found = names[at] if at < len(names) else "end of children"
                expected = ", ".join(sorted(outcome.expected))
                outcome = Violation("", f"children do not match the content model: at "
                                    f"child {at + 1} expected one of {{{expected}}}, "
                                    f"found {found}", expected=render_model(model))
            shapes[shape] = outcome
        if isinstance(outcome, Violation):
            out.append(Violation(path, outcome.message, outcome.expected))
        else:
            matches[element] = outcome

        child_paths = None
        for k in range(len(children) - 1, -1, -1):  # pushed last to first
            child = children[k]
            if child.tag not in automata and child.tag in elements and not len(child):
                continue  # a text leaf
            if child_paths is None:
                child_paths = _child_paths(path, names)
            stack.append((child, child_paths[k]))
    return ValidationReport(document=document, valid=not out,
                            violations=tuple(out), matches=matches)


# -- bundled schema -----------------------------------------------------------------


def builtin_dtd_text() -> str:
    """Text of the DTD shipped with the package (mlfd.dtd)."""
    return resources.files("multiform").joinpath("mlfd.dtd").read_text("utf-8")


@lru_cache(maxsize=1)
def builtin_schema() -> DtdSchema:
    """Parsed form of the bundled DTD."""
    return parse_dtd(builtin_dtd_text())
