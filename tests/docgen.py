"""Random valid documents for round-trip tests, plus invalidating mutations.

The generator works against any parsed DTD: uniform choice over
alternatives, repetition counts 0..3 (1..3 for +), leaf texts drawn from
a fixed alphabet that includes the empty text and characters the
serializer must escape, carriage returns among them.
"""

import copy
import xml.etree.ElementTree as ET

from multiform.dtd import (
    ITERATE,
    Choice,
    ElementRef,
    PCData,
    Sequence,
    nullable,
)

ALPHABET = (
    "",
    "a",
    "word",
    "two words",
    "x & y",
    "<not-a-tag>",
    "a<b>&c",
    "it''s",
    "it's",
    "42",
    "  padded  ",
    "tab\tseparated",
    "cr\rand crlf\r\n",
)


def generate_document(schema, rng) -> ET.Element:
    def build(name):
        element = ET.Element(name)
        model = schema.elements[name]
        if isinstance(model, PCData):
            element.text = rng.choice(ALPHABET)
        else:
            element.extend(emit(model))
        return element

    def emit(model):
        if isinstance(model, ElementRef):
            return [build(model.name)]
        if isinstance(model, Sequence):
            return [child for part in model.parts for child in emit(part)]
        if isinstance(model, Choice):
            return emit(rng.choice(model.alternatives))
        reps = {"?": rng.randint(0, 1), "*": rng.randint(0, 3),
                "+": rng.randint(1, 3)}[model.mult]
        return [child for _ in range(reps) for child in emit(model.inner)]

    return build(schema.root)


# -- mutations -----------------------------------------------------------------
#
# Each mutation guarantees the result is invalid, so soundness tests can
# demand 50 failures out of 50.


def _elements(root):
    return [root] + [d for c in root for d in _elements(c)]


def rename_root(document, schema, rng):
    mutant = copy.deepcopy(document)
    mutant.tag = "NOT_" + mutant.tag
    return mutant


def drop_required(document, schema, rng):
    """Empty out an element whose content model requires at least one child."""
    victims = [e for e in _elements(document)
               if e.tag in schema.elements
               and not isinstance(schema.elements[e.tag], PCData)
               and not nullable(schema.elements[e.tag])]
    victim = rng.choice(victims)
    mutant = copy.deepcopy(document)
    target = _elements(mutant)[_elements(document).index(victim)]
    for child in list(target):
        target.remove(child)
    return mutant


def _single_choices(model, decisions, index, out):
    """Walk model along its match's decisions from child `index`, noting the
    index of each child matched by a choice that allows exactly one element;
    returns the index of the first child after the model."""
    if isinstance(model, ElementRef):
        return index + 1
    if isinstance(model, Sequence):
        for part in model.parts:
            index = _single_choices(part, decisions, index, out)
        return index
    if isinstance(model, Choice):
        chosen = model.alternatives[next(decisions)]
        if isinstance(chosen, ElementRef):
            out.append(index)
        return _single_choices(chosen, decisions, index, out)
    # repeat iterations are repeatable ground, duplicates there can stay valid
    while next(decisions) == ITERATE:
        index = _single_choices(model.inner, decisions, index, [])
        if model.mult == "?":
            break
    return index


def duplicate_choice(document, schema, rng):
    """Duplicate the element picked by a one-element choice, or fall back.

    None of the schemas used in tests can reabsorb the copy into a later
    model position, so the result is always invalid.
    """
    candidates = []
    for k, element in enumerate(_elements(document)):
        model = schema.elements.get(element.tag)
        if model is None or isinstance(model, PCData):
            continue
        decisions = schema._automata[element.tag].match([c.tag for c in element])
        spots = []
        _single_choices(model, iter(decisions), 0, spots)
        candidates.extend((k, index) for index in spots)
    if not candidates:
        return drop_required(document, schema, rng)
    k, index = rng.choice(candidates)
    mutant = copy.deepcopy(document)
    parent = _elements(mutant)[k]
    parent.insert(index + 1, copy.deepcopy(parent[index]))
    return mutant


MUTATIONS = (drop_required, duplicate_choice, rename_root)


def mutate(document, schema, rng):
    """Apply one randomly picked mutation; returns (name, mutated copy)."""
    op = rng.choice(MUTATIONS)
    return op.__name__, op(document, schema, rng)
