"""Seeded inputs for the staging benchmark.

Each object is written as real files plus a sidecar. Alongside, the
generator records the document the pipeline must make of them, as a
nested ``(tag, text | [children])`` tree in the bundled DTD's order. That
expectation comes from what was written, never from the program's output.
"""

from __future__ import annotations

import csv
import io
import os
import random
from dataclasses import dataclass

# Tables of the bundled DTD's relational layout, in creation order, and the
# element whose every occurrence writes one row there. tuple_g1 holds one
# row per (ATT_NAME_REF, VALUE) pair of a tuple.
TABLES = ("complex_object", "subdocument", "keyword", "text", "tagged_text",
          "link", "relational_view", "attribute", "tuple", "tuple_g1",
          "image", "continuous")
_ROW_ELEMENT = {
    "COMPLEX_OBJECT": "complex_object", "SUBDOCUMENT": "subdocument",
    "KEYWORD": "keyword", "TEXT": "text", "TAGGED_TEXT": "tagged_text",
    "LINK": "link", "RELATIONAL_VIEW": "relational_view",
    "ATTRIBUTE": "attribute", "TUPLE": "tuple", "ATT_NAME_REF": "tuple_g1",
    "IMAGE": "image", "CONTINUOUS": "continuous",
}

WORDS = ("reef", "tide", "gull", "harbour", "x & y", "a<b", "naïve", "café",
         "中文", "'quoted'", '"double"', "O'Brien", "3.14", "42", "a>b",
         "semi;colon", "comma,here", "tab\there", "ümlaut", "50%")
CELLS = ("", "42", "x & y", "<b>bold</b>", 'say "hi"', "a,b", "tab\tin",
         "  padded  ", "naïve", "O'Brien", "3.14", "", "2002-06-15", "中文",
         "a;b", "&amp;", "-1")
DOMAINS = ("integer", "string", "date", "decimal")
SOURCES = ("Local", "http://example.org/crawl?day=1&run=2", "Archive & Co")
LANGUAGES = ("English", "French", "Deutsch")
COMPRESSIONS = ("LZW", "Deflate", "Huffman")
RESOLUTIONS = ("72dpi", "300dpi")
SPEEDS = ("25 fps", "44.1 kHz", "30 fps")
MEDIA_EXT = {"sound": ("wav", "mp3"), "video": ("mp4", "avi", "mpg", "mpeg")}

# One object per template in turn: single files of every kind, then objects
# made of several files.
TEMPLATES = (("txt",), ("html",), ("csv",), ("tsv",), ("gif",), ("png",),
             ("jpg",), ("sound",), ("video",), ("txt", "png", "csv"),
             ("html", "sound"), ("video", "jpeg", "tsv"))


@dataclass(frozen=True)
class Profile:
    """Size ranges of generated objects."""

    text_chars: tuple[int, int]
    view_rows: int              # most tuples; counts are log-uniform from 1
    view_cols: tuple[int, int]
    links: tuple[int, int]


MIXED = Profile(text_chars=(80, 4000), view_rows=100, view_cols=(2, 6),
                links=(1, 20))
# Documents of the preloaded store: more text, short views, so the store
# outgrows SQLite's page cache while each export stays a few queries.
STORED = Profile(text_chars=(1500, 6000), view_rows=8, view_cols=(2, 4),
                 links=(1, 8))


@dataclass
class ObjectSpec:
    """Files of one object and the document they must become."""

    name: str
    files: list
    sidecar: str
    tree: tuple

    def counts(self) -> dict:
        """ODS rows per table that loading this document must write."""
        out = dict.fromkeys(TABLES, 0)

        def walk(node):
            tag, body = node
            if tag in _ROW_ELEMENT:
                out[_ROW_ELEMENT[tag]] += 1
            if isinstance(body, list):
                for child in body:
                    walk(child)

        walk(self.tree)
        return out


def strata(n: int, order: random.Random) -> list:
    """The midpoints of n equal slices of [0, 1), shuffled by order."""
    values = [(k + 0.5) / n for k in range(n)]
    order.shuffle(values)
    return values


def _scale(u: float, bounds: tuple) -> int:
    lo, hi = bounds
    return lo + int(u * (hi - lo + 1))


def _write(path: str, data: bytes) -> int:
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


@dataclass
class _Sidecar:
    date: str
    source: str
    language: str | None
    keywords: list
    duration: str | None = None
    speed: str | None = None
    compression: str | None = None
    resolution: str | None = None
    query: str | None = None
    domains: dict | None = None

    def text(self) -> str:
        lines = ["# captured with the crawl", f"date: {self.date}",
                 f"source: {self.source}"]
        if self.language is not None:
            lines.append(f"Language: {self.language}")
        lines += [f"keyword: {k}" for k in self.keywords]
        for key in ("duration", "speed", "compression", "resolution", "query"):
            if getattr(self, key) is not None:
                lines.append(f"{key}: {getattr(self, key)}")
        lines += [f"domain.{a}: {d}" for a, d in (self.domains or {}).items()]
        return "\n".join(lines) + "\n"


# -- payloads: each writes one file and returns the expected payload element --


def _text_file(rng, path, profile, u, tagged):
    target = _scale(u, profile.text_chars)
    lines, links, size = [], [], 0
    if tagged:
        lines.append("<html><body>")
        nlinks = _scale(u, profile.links)
    while size < target or (tagged and len(links) < nlinks):
        words = " ".join(rng.choice(WORDS) for _ in range(rng.randint(3, 12)))
        if tagged and len(links) < nlinks:
            url = f"http://example.org/p/{rng.randint(1, 999)}?a=1&b={len(links)}"
            form = rng.randrange(4)
            if form == 0:
                tag = f'<a href="{url}">{words}</a>'
            elif form == 1:
                tag = f"<img alt='pic' src='{url}'>"
            elif form == 2:
                tag = f"<link rel=x href={url}>"
            else:
                tag = f'<A HREF="{url}" class="c">{words}</A>'
            links.append(url)
            words = f"<p>{tag} {words}</p>"
        lines.append(words)
        size += len(words) + 1
    if tagged:
        lines.append("</body></html>")
    content = "\n".join(lines) + ("\n" if rng.random() < 0.7 else "")
    nbytes = _write(path, content.encode("utf-8"))
    if tagged:
        body = ("TAGGED_TEXT", [("CONTENT", content)]
                + [("LINK", link) for link in links])
    else:
        body = ("PLAIN_TEXT", content)
    return "Text", nbytes, ("TEXT", [("NB_CHAR", str(len(content))),
                                     ("NB_LINES", str(len(lines))), body])


def write_view(rng, path, rows, cols, side):
    """A CSV or TSV export with a header row; sets domains and query on side."""
    delimiter = "\t" if path.endswith(".tsv") else ","
    header = [f"{rng.choice(('id', 'name', 'when', 'qty', 'note'))}_{j}"
              for j in range(cols)]
    data = [[rng.choice(CELLS) if rng.random() < 0.6 else
             f"{rng.choice(WORDS)} {r}" for _ in range(cols)] for r in range(rows)]
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(data)
    nbytes = _write(path, buf.getvalue().encode("utf-8"))
    side.domains = {a: rng.choice(DOMAINS) for a in header if rng.random() < 0.3}
    if rng.random() < 0.5:
        side.query = f"SELECT {header[0]} FROM t WHERE {header[-1]} <> 'x' & 1 < 2"
    kids = [("QUERY", side.query)] if side.query is not None else []
    kids += [("ATTRIBUTE", [("ATT_NAME", a),
                            ("DOMAIN", side.domains.get(a, "string"))])
             for a in header]
    for row in data:
        pairs = []
        for a, value in zip(header, row):
            pairs += [("ATT_NAME_REF", a), ("VALUE", value)]
        kids.append(("TUPLE", pairs))
    return "Relational view", nbytes, ("RELATIONAL_VIEW", kids)


def _image_file(rng, path, ext, side):
    width, length = rng.randint(1, 4000), rng.randint(1, 4000)
    pad = rng.randbytes(rng.randint(10, 400))
    if ext == "gif":
        data = (b"GIF89a" + width.to_bytes(2, "little")
                + length.to_bytes(2, "little") + b"\x00\x00\x00" + pad)
        fmt = "Gif"
    elif ext == "png":
        data = (b"\x89PNG\r\n\x1a\n" + (13).to_bytes(4, "big") + b"IHDR"
                + width.to_bytes(4, "big") + length.to_bytes(4, "big")
                + b"\x08\x02\x00\x00\x00" + pad)
        fmt = "Png"
    else:
        app0 = b"\xff\xe0" + (16).to_bytes(2, "big") + b"JFIF\x00" + bytes(9)
        dqt = b"\xff\xdb" + (67).to_bytes(2, "big") + bytes(65)
        sof = (b"\xff\xc0" + (17).to_bytes(2, "big") + b"\x08"
               + length.to_bytes(2, "big") + width.to_bytes(2, "big")
               + b"\x03" + bytes(9))
        data = b"\xff\xd8" + app0 + dqt + sof + pad
        fmt = "Jpeg"
    if rng.random() < 0.5:
        side.compression = rng.choice(COMPRESSIONS)
    if rng.random() < 0.5:
        side.resolution = rng.choice(RESOLUTIONS)
    nbytes = _write(path, data)
    return "Image", nbytes, ("IMAGE", [
        ("COMPRESSION", side.compression or ""), ("FORMAT", fmt),
        ("RESOLUTION", side.resolution or ""), ("LENGTH", str(length)),
        ("WIDTH", str(width))])


def _media_file(rng, path, kind, side):
    nbytes = _write(path, rng.randbytes(rng.randint(500, 5000)))
    side.duration = side.duration or f"{rng.randint(0, 36000) / 10:.1f}"
    side.speed = side.speed or rng.choice(SPEEDS)
    tag = "SOUND" if kind == "sound" else "VIDEO"
    return kind.capitalize(), nbytes, ("CONTINUOUS", [
        ("DURATION", side.duration), ("SPEED", side.speed), (tag, path)])


def _new_sidecar(rng):
    return _Sidecar(
        date=f"{rng.randint(1995, 2007)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
        source=rng.choice(SOURCES),
        language=rng.choice(LANGUAGES) if rng.random() < 0.7 else None,
        keywords=[rng.choice(WORDS) for _ in range(rng.randint(0, 3))])


def make_object(rng, directory, index, template, u, w, profile) -> ObjectSpec:
    """Write one object's files and sidecar; return what they must become.

    u sets the length of its text and the tuples of its view, w the width
    of its view. The sidecar is written last because the payloads fill in
    its type-specific keys.
    """
    side = _new_sidecar(rng)
    subdocs, files = [], []
    for j, kind in enumerate(template):
        ext = rng.choice(MEDIA_EXT[kind]) if kind in MEDIA_EXT else kind
        stem = f"o{index:05d}-{j}"
        path = os.path.join(directory, f"{stem}.{ext}")
        if ext in ("txt", "html"):
            type_, nbytes, payload = _text_file(rng, path, profile, u, ext == "html")
        elif ext in ("csv", "tsv"):
            type_, nbytes, payload = write_view(
                rng, path, round(profile.view_rows ** u),
                _scale(w, profile.view_cols), side)
        elif ext in ("gif", "png", "jpg", "jpeg"):
            type_, nbytes, payload = _image_file(rng, path, ext, side)
        else:
            type_, nbytes, payload = _media_file(rng, path, kind, side)
        files.append(path)
        subdocs.append((stem, type_, nbytes, path, payload))
    sidecar = os.path.join(directory, f"o{index:05d}.meta")
    _write(sidecar, side.text().encode("utf-8"))
    return ObjectSpec(name=subdocs[0][0], files=files, sidecar=sidecar,
                      tree=_object_tree(side, subdocs))


def _object_tree(side, subdocs):
    kids = [("OBJ_NAME", subdocs[0][0]), ("DATE", side.date),
            ("SOURCE", side.source)]
    for stem, type_, nbytes, path, payload in subdocs:
        sub = [("DOC_NAME", stem), ("TYPE", type_), ("SIZE", str(nbytes)),
               ("LOCATION", path)]
        if side.language is not None:
            sub.append(("LANGUAGE", side.language))
        sub += [("KEYWORD", k) for k in side.keywords]
        sub.append(payload)
        kids.append(("SUBDOCUMENT", sub))
    return ("COMPLEX_OBJECT", kids)


def make_pool(rng, directory, count, profile, first_index=0) -> list:
    """count objects cycling through TEMPLATES, sizes stratified per template.

    The sizes of the objects and their order are the same for every seed:
    the work in a round, and where its largest objects fall, set the
    throughput and the tail latencies. The seed draws the contents.
    """
    os.makedirs(directory, exist_ok=True)
    order = random.Random(f"layout:{count}")
    per_template = -(-count // len(TEMPLATES))
    sizes = [strata(per_template, order) for _ in TEMPLATES]
    widths = [strata(per_template, order) for _ in TEMPLATES]
    specs = []
    for i in range(count):
        t = i % len(TEMPLATES)
        specs.append(make_object(rng, directory, first_index + i, TEMPLATES[t],
                                 sizes[t].pop(), widths[t].pop(), profile))
    order.shuffle(specs)
    return specs


def make_view_object(rng, directory, index, rows, cols) -> ObjectSpec:
    """One object holding a single rows x cols view."""
    os.makedirs(directory, exist_ok=True)
    side = _new_sidecar(rng)
    stem = f"v{index:03d}-{rows}x{cols}"
    path = os.path.join(directory, f"{stem}.{'tsv' if index % 2 else 'csv'}")
    type_, nbytes, payload = write_view(rng, path, rows, cols, side)
    sidecar = os.path.join(directory, f"{stem}.meta")
    _write(sidecar, side.text().encode("utf-8"))
    return ObjectSpec(name=stem, files=[path], sidecar=sidecar,
                      tree=_object_tree(side, [(stem, type_, nbytes, path, payload)]))
