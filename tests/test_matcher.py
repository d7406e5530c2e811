"""The content-model matcher against the backtracking oracle in oracle.py."""

import xml.etree.ElementTree as ET

from hypothesis import example, given, settings, strategies as st

import oracle
from multiform.dtd import (
    Choice,
    ElementRef,
    Repeat,
    Sequence,
    _Failure,
    match_children,
    parse_dtd,
    validate,
)

A, B = ElementRef("A"), ElementRef("B")


def grow(inner):
    parts = st.lists(inner, min_size=2, max_size=3).map(tuple)
    return st.one_of(parts.map(Sequence), parts.map(Choice),
                     st.builds(Repeat, inner, st.sampled_from("?*+")))


# two element names make ambiguous models common; C in the children fails
models = st.recursive(st.sampled_from("AB").map(ElementRef), grow, max_leaves=6)
names = st.lists(st.sampled_from("ABC"), max_size=6)


@settings(max_examples=400, deadline=None)
@given(models, names)
@example(Sequence((Repeat(B, "*"), B)), ["B", "B", "B"])
@example(Sequence((Repeat(B, "*"), B)), [])
@example(Sequence((Repeat(A, "*"), Repeat(A, "*"))), ["A", "A", "A"])
@example(Repeat(Repeat(A, "?"), "+"), [])
@example(Repeat(Repeat(A, "?"), "+"), ["A", "A"])
@example(Sequence((Choice((Repeat(A, "?"), B)), A)), ["A"])
@example(Repeat(Choice((Repeat(A, "*"), Repeat(B, "?"))), "+"), ["B", "A", "C"])
def test_matcher_agrees_with_the_backtracking_oracle(model, names):
    fail, oracle_fail = _Failure(), oracle.Failure()
    tree = match_children(model, names, fail)
    assert tree == oracle.match_children(model, names, oracle_fail)
    if tree is None:
        assert (fail.pos, fail.expected) == (oracle_fail.pos, oracle_fail.expected)


def test_many_optional_children_reject_a_bad_child():
    # the backtracker tried every way to place the eleven A among the 22
    # A? before giving up; the message is the one it gave
    model = ", ".join(["A?"] * 22)
    schema = parse_dtd(f"<!ELEMENT R ({model}, B)>\n<!ELEMENT A (#PCDATA)>\n"
                       "<!ELEMENT B (#PCDATA)>\n<!ELEMENT C (#PCDATA)>\n")
    report = validate(ET.fromstring("<R>" + "<A/>" * 11 + "<C/></R>"), schema)
    assert [str(v) for v in report.violations] == [
        "/R: children do not match the content model: at child 12 expected "
        f"one of {{A, B}}, found C (expected ({model}, B))"]
