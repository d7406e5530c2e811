"""Warehouse staging for multiform web data.

Heterogeneous files (text, markup, images, database extracts, sound,
video) are described by one object model, serialized as XML documents
valid against a bundled DTD, and shredded into a relational store whose
schema is compiled from that DTD. Exporting a loaded document gives back
the canonical XML byte for byte.
"""

from .dtd import (
    DtdSchema,
    ValidationReport,
    builtin_dtd_text,
    builtin_schema,
    format_dtd,
    parse_dtd,
    validate,
)
from .errors import MultiformError
from .extract import (
    detect_kind,
    extract_continuous,
    extract_image,
    extract_links,
    extract_subdocument,
    extract_text,
    ingest_relational_view,
    load_sidecar,
)
from .loader import LoadReport, OdsStore, RowSet, export, load, shred
from .mapper import RelationalSchema, emit_ddl, map_schema
from .model import (
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
from .sidecar import SidecarRecord, parse_sidecar
from .xmldoc import parse_document, serialize

__version__ = "0.1.0"

__all__ = [
    "Attribute",
    "Cell",
    "ComplexObject",
    "ContinuousMeta",
    "DtdSchema",
    "ImageMeta",
    "LoadReport",
    "MultiformError",
    "OdsStore",
    "PlainText",
    "RelationalSchema",
    "RelationalView",
    "RowSet",
    "SidecarRecord",
    "Sound",
    "Subdocument",
    "TaggedText",
    "TextPayload",
    "ValidationReport",
    "Video",
    "ViewTuple",
    "apply_sidecar",
    "builtin_dtd_text",
    "builtin_schema",
    "detect_kind",
    "emit_ddl",
    "export",
    "extract_continuous",
    "extract_image",
    "extract_links",
    "extract_subdocument",
    "extract_text",
    "format_dtd",
    "ingest_relational_view",
    "load",
    "load_sidecar",
    "make_complex_object",
    "map_schema",
    "parse_document",
    "parse_dtd",
    "parse_sidecar",
    "serialize",
    "shred",
    "validate",
]
