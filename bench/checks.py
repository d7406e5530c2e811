"""Output checks made apart from the program.

Documents are read back with the standard library's ElementTree and
compared with the tree the generator recorded; row counts are compared
with counts derived from that tree; exports are compared byte for byte
with the document that was loaded under the same id.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

PROLOG = ('<?xml version="1.0" encoding="UTF-8"?>\n'
          '<!DOCTYPE COMPLEX_OBJECT SYSTEM "mlfd.dtd">\n')


class CheckFailed(Exception):
    """An output differs from what the inputs imply."""


class OperationFailed(Exception):
    """The program refused an operation that must succeed."""


def tree_of(element) -> tuple:
    children = list(element)
    if children:
        return (element.tag, [tree_of(c) for c in children])
    return (element.tag, element.text or "")


def _first_difference(got, want, path=""):
    if got[0] != want[0]:
        return f"{path}: element {got[0]} where {want[0]} was expected"
    path = f"{path}/{want[0]}"
    if isinstance(got[1], list) and isinstance(want[1], list):
        for k, (g, w) in enumerate(zip(got[1], want[1])):
            if g != w:
                return _first_difference(g, w, f"{path}[{k + 1}]")
        return f"{path}: {len(got[1])} children where {len(want[1])} were expected"
    return f"{path}: {got[1]!r} where {want[1]!r} was expected"


def check_document(text: str, spec) -> None:
    """The document carries exactly what the generator wrote into the files."""
    if not text.startswith(PROLOG):
        raise CheckFailed(f"{spec.name}: document does not start with the canonical prolog")
    try:
        got = tree_of(ET.fromstring(text[len(PROLOG):]))
    except ET.ParseError as exc:
        raise CheckFailed(f"{spec.name}: document is not well formed: {exc}") from None
    if got != spec.tree:
        raise CheckFailed(f"{spec.name}: {_first_difference(got, spec.tree)}")


def check_counts(counts: dict, spec) -> None:
    """Rows written per table equal the counts derived from the inputs."""
    want = spec.counts()
    if dict(counts) != want:
        diff = {t: (counts.get(t), want[t]) for t in want if counts.get(t) != want[t]}
        raise CheckFailed(f"{spec.name}: rows per table (got, expected) {diff}")


def check_load_stdout(stdout: str, spec) -> None:
    """`multiform load` prints one `table: rows` line per table, in schema order."""
    want = "".join(f"{t}: {n}\n" for t, n in spec.counts().items())
    if stdout != want:
        raise CheckFailed(f"{spec.name}: load printed {stdout!r}, expected {want!r}")


def check_same(exported: str, loaded: str, what: str) -> None:
    """An exported document is byte-identical to the one loaded under its id."""
    if exported != loaded:
        at = next((i for i, (a, b) in enumerate(zip(exported, loaded)) if a != b),
                  min(len(exported), len(loaded)))
        raise CheckFailed(f"{what}: export differs from the loaded document "
                          f"at character {at}")


def check_cli(code: int, stdout: str, stderr: str, what: str,
              expect_stdout: str | None = "") -> None:
    """Exit code 0, nothing on stderr, and the expected stdout."""
    if code != 0:
        raise OperationFailed(f"{what}: exit code {code}: {stderr.strip()}")
    if stderr:
        raise CheckFailed(f"{what}: unexpected stderr {stderr!r}")
    if expect_stdout is not None and stdout != expect_stdout:
        raise CheckFailed(f"{what}: unexpected stdout {stdout!r}")

