"""Reference content-model matcher: the recursive backtracker.

It yields every way a model matches a run of child names, in the order a
backtracking search tries them: repeats greedy, alternatives in order,
zero-width iterations skipped. The first full match is the answer, and a
failure reports the deepest position reached with the names expected there.
Its recursion depth grows with the number of children and its time can be
exponential, so it serves only as the oracle that `multiform.dtd`'s
position automaton is compared against.
"""

from multiform.dtd import (
    Choice,
    ElementRef,
    MChoice,
    MRef,
    MRep,
    MSeq,
    Repeat,
    Sequence,
    nullable,
)


class Failure:
    """Deepest failure position and the names that would have matched there."""

    def __init__(self):
        self.pos = -1
        self.expected = set()

    def note(self, pos, name):
        if pos > self.pos:
            self.pos = pos
            self.expected = {name}
        elif pos == self.pos:
            self.expected.add(name)


def matches(model, names, pos, fail):
    """Yield (end position, match tree) for every way model matches names[pos:]."""
    if isinstance(model, ElementRef):
        if pos < len(names) and names[pos] == model.name:
            yield pos + 1, MRef(pos)
        else:
            fail.note(pos, model.name)
    elif isinstance(model, Sequence):
        def seq(k, at):
            if k == len(model.parts):
                yield at, ()
                return
            for p1, t1 in matches(model.parts[k], names, at, fail):
                for p2, rest in seq(k + 1, p1):
                    yield p2, (t1,) + rest
        for end, parts in seq(0, pos):
            yield end, MSeq(parts)
    elif isinstance(model, Choice):
        for k, alt in enumerate(model.alternatives):
            for end, tree in matches(alt, names, pos, fail):
                yield end, MChoice(k, tree)
    elif isinstance(model, Repeat):
        if model.mult == "?":
            for end, tree in matches(model.inner, names, pos, fail):
                if end > pos:
                    yield end, MRep((tree,))
            yield pos, MRep(())
        else:
            def reps(at, acc):
                for end, tree in matches(model.inner, names, at, fail):
                    if end > at:  # zero-width iterations add nothing
                        yield from reps(end, acc + (tree,))
                yield at, acc
            allow_empty = model.mult == "*" or nullable(model.inner)
            for end, acc in reps(pos, ()):
                if acc or allow_empty:
                    yield end, MRep(acc)
    else:
        raise TypeError(f"cannot match against {model!r}")


def match_children(model, names, fail=None):
    """First full match of the child name sequence, or None."""
    if fail is None:
        fail = Failure()
    for end, tree in matches(model, names, 0, fail):
        if end == len(names):
            return tree
        fail.note(end, "end of children")
    return None
