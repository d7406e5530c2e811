"""The content-model matcher against the backtracking oracle in oracle.py."""

import sys
import tracemalloc
import xml.etree.ElementTree as ET

from hypothesis import example, given, settings, strategies as st

import oracle
from multiform.dtd import (
    ITERATE,
    STOP,
    Choice,
    ElementRef,
    Repeat,
    Sequence,
    _Automaton,
    _Failure,
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
    oracle_fail = oracle.Failure()
    outcome = oracle.match_children(model, names, oracle_fail)
    if outcome is None:   # the failure must name the oracle's position and names
        outcome = _Failure(oracle_fail.pos, oracle_fail.expected)
    assert _Automaton(model).match(names) == outcome


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


def test_a_run_builds_only_the_states_it_reaches():
    # building all 1,001 states of this model takes seconds; one child needs two
    model = Sequence(tuple(Repeat(ElementRef(f"E{i}"), "?") for i in range(1000)))
    automaton = _Automaton(model)
    assert automaton.match(["E500"]) == (STOP,) * 500 + (ITERATE,) + (STOP,) * 499
    assert len(automaton.steps) == 2


def test_automaton_memory_grows_with_its_transitions_not_beyond():
    # (E0?, ..., E149?) has about n^2/2 transitions, and each records the run
    # of STOP decisions it skips over; only if those runs share their storage
    # does memory grow as n^2, not n^3 (1.4 GiB at n = 1000 on Python 3.11);
    # states are built as a run reaches them, and matching every E builds all
    model = Sequence(tuple(Repeat(ElementRef(f"E{i}"), "?") for i in range(150)))
    tracemalloc.start()
    try:
        automaton = _Automaton(model)
        assert automaton.match([f"E{i}" for i in range(150)]) == (ITERATE,) * 150
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(automaton.steps) == 151   # the start and every E
    transitions = sum(len(to) for by_name in automaton.steps.values()
                      for to in by_name.values())
    assert held < 8 * transitions * sys.getsizeof((0, ()))
    assert automaton.match(["E3"]) == (STOP,) * 3 + (ITERATE,) + (STOP,) * 146
