"""Shred a mixed document into SQLite and rebuild it byte for byte.

The object combines a text page and a relational view, so the load
touches scalar columns, a leaf table (keywords), and the synthetic
table holding tuple cells. Export reverses the walk and must give back
the exact serialization that went in.
"""

import os
import tempfile

from multiform import (
    OdsStore,
    builtin_schema,
    export,
    extract_subdocument,
    load,
    make_complex_object,
    map_schema,
    parse_sidecar,
    serialize,
    shred,
    validate,
)
from multiform.xmldoc import parse_document

PAGE = '<html><a href="http://example.org/reef">reef cam</a></html>\n'
TABLE = "spot,rating\nPipeline,9\nMavericks,8\n"


def main():
    schema = builtin_schema()
    rschema = map_schema(schema)

    with tempfile.TemporaryDirectory() as tmp:
        page = os.path.join(tmp, "page.html")
        table = os.path.join(tmp, "spots.csv")
        with open(page, "w") as fh:
            fh.write(PAGE)
        with open(table, "w") as fh:
            fh.write(TABLE)

        # a query or domain applies only to a relational view
        record = parse_sidecar("keyword: surf\ndomain.rating: integer\n"
                               "query: SELECT spot, rating FROM spots\n")
        obj = make_complex_object("Surf guide", "2002-06-15", "Web", [
            extract_subdocument(page, sidecar=record),
            extract_subdocument(table, sidecar=record),
        ])
        text = serialize(obj, schema)

        document = parse_document(text).root
        report = validate(document, schema)
        rows = shred(document, schema, rschema, report)

        with OdsStore(rschema) as store:
            loaded = load(rows, store)
            print("rows per table:")
            for name, count in sorted(loaded.counts.items()):
                if count:
                    print(f"  {name}: {count}")
            back = export(store, 1, schema, rschema)

        print()
        print("export identical to input:", back == text)
        print()
        print(back, end="")


if __name__ == "__main__":
    main()
