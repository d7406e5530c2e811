"""Sidecar files: user-captured metadata accompanying a data file.

A sidecar is UTF-8 text with one ``key: value`` pair per line. Keys are
case-insensitive; ``keyword`` may repeat and keeps its order; lines whose
first non-blank character is ``#`` are comments. ``domain.<att_name>``
assigns a domain to one attribute of a relational view (the ``<att_name>``
part is matched against the header exactly as written).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import MalformedSidecarLine, UnknownSidecarKey

_SCALAR_KEYS = (
    "language",
    "resolution",
    "compression",
    "duration",
    "speed",
    "query",
    "name",
    "source",
    "date",
)


@dataclass(frozen=True, eq=True)
class SidecarRecord:
    """Parsed sidecar contents. Unset fields are None (or empty)."""

    keywords: tuple[str, ...] = ()
    language: str | None = None
    resolution: str | None = None
    compression: str | None = None
    duration: str | None = None
    speed: str | None = None
    query: str | None = None
    name: str | None = None
    source: str | None = None
    date: str | None = None
    domains: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "keywords", tuple(self.keywords))
        object.__setattr__(self, "domains", dict(self.domains))


EMPTY = SidecarRecord()


def parse_sidecar(text: str) -> SidecarRecord:
    """Parse sidecar text into a record.

    Repeated scalar keys keep the last value; repeated ``keyword`` lines
    accumulate in order. A leading byte order mark is skipped. LF, CRLF and
    a lone CR each end a line; no other character does.
    """
    keywords: list[str] = []
    scalars: dict[str, str] = {}
    domains: dict[str, str] = {}
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise MalformedSidecarLine(lineno, raw)
        rawkey, value = line.split(":", 1)
        rawkey = rawkey.strip()
        value = value.strip()
        key = rawkey.lower()
        if key == "keyword":
            keywords.append(value)
        elif key in _SCALAR_KEYS:
            scalars[key] = value
        elif key.startswith("domain."):
            att = rawkey[len("domain."):]
            if not att:
                raise UnknownSidecarKey(rawkey, lineno)
            domains[att] = value
        else:
            raise UnknownSidecarKey(rawkey, lineno)
    return SidecarRecord(keywords=tuple(keywords), domains=domains, **scalars)


def override(record: SidecarRecord, **fields) -> SidecarRecord:
    """Return a copy with the given non-None fields replaced.

    Used by callers that layer explicit options over a sidecar file.
    """
    updates = {k: v for k, v in fields.items() if v is not None and v != ()}
    return replace(record, **updates) if updates else record
