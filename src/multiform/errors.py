"""Exception types raised across the package.

Every failure mode a caller is expected to handle has its own class so that
command-line and library callers can map outcomes without string matching.
"""


class MultiformError(Exception):
    """Base class for all errors raised by this package."""


# -- object model ------------------------------------------------------------

class EmptySubdocuments(MultiformError):
    """A complex object needs at least one subdocument."""


class InvalidDate(MultiformError):
    """Date text is not a valid ISO calendar date."""


class InvariantViolation(MultiformError):
    """A value type was constructed with inconsistent fields."""


# -- sidecar files -----------------------------------------------------------

class SidecarError(MultiformError):
    """Base for sidecar parsing problems."""


class UnknownSidecarKey(SidecarError):
    def __init__(self, key, line=None):
        self.key = key
        self.line = line
        at = f" (line {line})" if line else ""
        super().__init__(f"unknown sidecar key {key!r}{at}")


class MalformedSidecarLine(SidecarError):
    def __init__(self, line, text):
        self.line = line
        super().__init__(f"line {line} is not a 'key: value' pair: {text!r}")


class MissingSidecarField(SidecarError):
    def __init__(self, field):
        self.field = field
        super().__init__(f"sidecar field {field!r} is required for this input")


# -- extraction --------------------------------------------------------------

class ExtractionError(MultiformError):
    """Base for extraction failures."""


class UnknownExtension(ExtractionError):
    def __init__(self, path, supported):
        self.path = path
        self.supported = tuple(supported)
        super().__init__(
            f"cannot classify {path!r}; supported extensions: "
            + ", ".join(self.supported)
        )


class FileNotReadable(ExtractionError):
    def __init__(self, path, reason):
        self.path = path
        super().__init__(f"cannot read {path!r}: {reason}")


class InvalidEncoding(ExtractionError):
    def __init__(self, path, offset):
        self.path = path
        self.offset = offset
        super().__init__(f"{path!r} is not valid UTF-8 (first bad byte at offset {offset})")


class UnsupportedFormat(ExtractionError):
    def __init__(self, path, detail="unrecognized image signature"):
        self.path = path
        super().__init__(f"{path!r}: {detail}")


class CorruptHeader(ExtractionError):
    def __init__(self, path, detail):
        self.path = path
        super().__init__(f"{path!r}: {detail}")


class EmptyHeader(ExtractionError):
    def __init__(self, path):
        self.path = path
        super().__init__(f"{path!r} has no header row")


class MalformedTable(ExtractionError):
    def __init__(self, path, line, detail):
        self.path = path
        self.line = line
        super().__init__(f"{path!r} line {line}: {detail}")


class RaggedRow(ExtractionError):
    def __init__(self, path, row, expected, got):
        self.path = path
        self.row = row
        super().__init__(
            f"{path!r} row {row}: expected {expected} cells, got {got}"
        )


# -- DTD parsing and validation ----------------------------------------------

class DtdError(MultiformError):
    """Base for schema-side problems."""


class DtdSyntaxError(DtdError):
    def __init__(self, line, expected, found=None):
        self.line = line
        self.expected = expected
        self.found = found
        detail = f"expected {expected}"
        if found is not None:
            detail += f", found {found!r}"
        super().__init__(f"line {line}: {detail}")


class DuplicateDeclaration(DtdError):
    def __init__(self, name, line):
        self.name = name
        self.line = line
        super().__init__(f"line {line}: element {name} declared twice")


class UndeclaredReference(DtdError):
    def __init__(self, element, referenced):
        self.element = element
        self.referenced = referenced
        super().__init__(f"element {element} references undeclared element {referenced}")


class MixedContent(DtdError):
    def __init__(self, name, line):
        self.name = name
        self.line = line
        super().__init__(
            f"line {line}: element {name} mixes #PCDATA with child elements, "
            "which is not supported"
        )


class NoRootElement(DtdError):
    def __init__(self):
        super().__init__("every declared element is referenced; no root candidate")


# -- XML document handling ---------------------------------------------------

class NotWellFormed(MultiformError):
    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class UnsupportedConstruct(MultiformError):
    def __init__(self, kind, detail):
        self.kind = kind
        super().__init__(f"unsupported XML construct ({kind}): {detail}")


class ModelViolation(MultiformError):
    """An object does not have the shape the schema's content model needs."""


class UnrepresentableCharacter(MultiformError):
    """Text holds a character outside XML 1.0's Char production."""

    def __init__(self, element, char):
        self.element = element
        self.code_point = ord(char)
        super().__init__(
            f"{element} holds U+{self.code_point:04X}, "
            "which XML 1.0 cannot represent")


# -- relational mapping ------------------------------------------------------

class NameCollision(MultiformError):
    def __init__(self, kind, name, first, second):
        self.kind = kind
        self.name = name
        super().__init__(
            f"two model constructs map to the same {kind} name {name!r}: "
            f"{first} vs {second}"
        )


# -- store and loading -------------------------------------------------------

class NotValidated(MultiformError):
    def __init__(self, detail="shred requires the validation report for this document"):
        super().__init__(detail)


class SchemaMismatch(MultiformError):
    """Rows or a stored table do not have the shape the mapping gives."""


class IntegrityViolation(MultiformError):
    """Rows would break a link or the store's constraints."""


class UnknownId(MultiformError):
    def __init__(self, table, object_id):
        self.table = table
        self.object_id = object_id
        super().__init__(f"no row with id {object_id} in table {table}")
