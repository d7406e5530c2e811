import xml.etree.ElementTree as ET

import pytest

from multiform.dtd import (
    ITERATE,
    MAX_GROUP_DEPTH,
    STOP,
    Choice,
    ElementRef,
    PCData,
    Repeat,
    Sequence,
    _Automaton,
    _Failure,
    builtin_dtd_text,
    builtin_schema,
    format_dtd,
    nullable,
    parse_dtd,
    render_model,
    validate,
)
from multiform.errors import (
    DtdSyntaxError,
    DuplicateDeclaration,
    MixedContent,
    NoRootElement,
    UndeclaredReference,
)


def test_bundled_dtd_has_37_declarations_rooted_at_complex_object():
    schema = builtin_schema()
    assert len(schema.names) == 37
    assert schema.root == "COMPLEX_OBJECT"


@pytest.mark.parametrize("name, model", [
    ("COMPLEX_OBJECT", "(OBJ_NAME, DATE, SOURCE, SUBDOCUMENT+)"),
    ("SUBDOCUMENT", "(DOC_NAME, TYPE, SIZE, LOCATION, LANGUAGE?, KEYWORD*, "
                    "(TEXT | RELATIONAL_VIEW | IMAGE | CONTINUOUS))"),
    ("TEXT", "(NB_CHAR, NB_LINES, (PLAIN_TEXT | TAGGED_TEXT))"),
    ("TUPLE", "(ATT_NAME_REF, VALUE)+"),
    ("CONTINUOUS", "(DURATION, SPEED, (SOUND | VIDEO))"),
    ("KEYWORD", "(#PCDATA)"),
])
def test_bundled_content_models(name, model):
    schema = builtin_schema()
    assert render_model(schema.elements[name]) == model


def test_single_item_groups_collapse():
    schema = parse_dtd("<!ELEMENT A (B)>\n<!ELEMENT B (#PCDATA)>")
    assert schema.elements["A"] == ElementRef("B")


def test_nested_groups_parse():
    schema = parse_dtd(
        "<!ELEMENT A (B, (C | D)*, B?)>"
        "<!ELEMENT B (#PCDATA)><!ELEMENT C (#PCDATA)><!ELEMENT D (#PCDATA)>")
    assert schema.elements["A"] == Sequence((
        ElementRef("B"),
        Repeat(Choice((ElementRef("C"), ElementRef("D"))), "*"),
        Repeat(ElementRef("B"), "?"),
    ))


def test_groups_nest_up_to_the_cap():
    deepest = "(" * MAX_GROUP_DEPTH + "B" + ")*" * MAX_GROUP_DEPTH
    schema = parse_dtd(f"<!ELEMENT A {deepest}>\n<!ELEMENT B (#PCDATA)>")
    assert parse_dtd(format_dtd(schema)) == schema
    with pytest.raises(DtdSyntaxError) as err:
        parse_dtd(f"<!ELEMENT B (#PCDATA)>\n<!ELEMENT A ({deepest})>")
    assert err.value.line == 2


def test_comments_are_skipped():
    schema = parse_dtd(
        "<!-- head -->\n<!ELEMENT A (B)>\n<!-- <!ELEMENT X (Y)> -->\n"
        "<!ELEMENT B (#PCDATA)>\n")
    assert set(schema.names) == {"A", "B"}


def test_root_is_the_first_unreferenced_element():
    schema = parse_dtd(
        "<!ELEMENT LEAF (#PCDATA)>\n<!ELEMENT TOP (LEAF)>\n")
    assert schema.root == "TOP"


def test_all_elements_referenced_means_no_root():
    with pytest.raises(NoRootElement):
        parse_dtd("<!ELEMENT A (B)>\n<!ELEMENT B (A)>\n")


def test_duplicate_declaration_reports_the_line():
    with pytest.raises(DuplicateDeclaration) as err:
        parse_dtd("<!ELEMENT A (#PCDATA)>\n<!ELEMENT A (#PCDATA)>\n")
    assert err.value.line == 2


def test_undeclared_reference_names_both_sides():
    with pytest.raises(UndeclaredReference) as err:
        parse_dtd("<!ELEMENT A (MISSING)>")
    assert err.value.element == "A"
    assert err.value.referenced == "MISSING"


def test_the_first_undeclared_reference_in_the_text_is_reported():
    with pytest.raises(UndeclaredReference) as err:
        parse_dtd("<!ELEMENT A (B, ((C | NESTED)*, D?), LATER)>\n"
                  "<!ELEMENT B (#PCDATA)>\n<!ELEMENT C (#PCDATA)>\n"
                  "<!ELEMENT D (#PCDATA)>")
    assert err.value.referenced == "NESTED"


def test_mixed_content_is_rejected():
    with pytest.raises(MixedContent):
        parse_dtd("<!ELEMENT A (#PCDATA | B)*>\n<!ELEMENT B (#PCDATA)>")


@pytest.mark.parametrize("text", [
    "<!ELEMENT A EMPTY>",
    "<!ELEMENT A ANY>",
    "<!ATTLIST A x CDATA #IMPLIED>",
    "<!ENTITY x 'y'>",
    "<!ELEMENT A (%thing;)>",
    "<!ELEMENT A (B,)>\n<!ELEMENT B (#PCDATA)>",
    "<!ELEMENT A (B | C, D)>",
    "<!ELEMENT A (B)",
    "not a dtd at all",
])
def test_unsupported_or_malformed_declarations(text):
    with pytest.raises(DtdSyntaxError):
        parse_dtd(text)


@pytest.mark.parametrize("text, message", [
    ("<!ELEMENT A", "line 1: expected a content model, found 'end of input'"),
    ("<!ELEMENT A (B", "line 1: expected ',', '|' or ')', found 'end of input'"),
    ("<!ELEMENT A (B\n\n\n", "line 1: expected ',', '|' or ')', found 'end of input'"),
    ("<!ELEMENT A (B,", "line 1: expected an element name or '(', found 'end of input'"),
    ("<!ELEMENT A (B)", "line 1: expected >, found 'end of input'"),
    (")", "line 1: expected <!ELEMENT, found ')'"),
    ("<!ELEMENT A (#PCDATA)>\n<!ELEMENT\xa0B (#PCDATA)>",
     "line 2: expected a DTD token, found '\\xa0'"),
    ("<!ELEMENT\fA (#PCDATA)>", "line 1: expected a DTD token, found '\\x0c'"),
    ("<!ELEMENT A (B,\n\vB)>", "line 2: expected a DTD token, found '\\x0b'"),
    ("<!ELEMENT A (#PCDATA)\u2028>", "line 1: expected a DTD token, found '\\u2028'"),
    ("\n\n\u3000<!ELEMENT A (#PCDATA)>",
     "line 3: expected a DTD token, found '\\u3000'"),
])
def test_syntax_errors_say_what_was_expected_and_found(text, message):
    # input that ends early is reported at the line of its last token; only
    # space, tab, CR and LF are whitespace between tokens (XML 1.0's S)
    with pytest.raises(DtdSyntaxError) as err:
        parse_dtd(text)
    assert str(err.value) == message


def test_a_character_that_starts_no_token_is_reported_on_its_line():
    with pytest.raises(DtdSyntaxError) as err:
        parse_dtd("<!ELEMENT A (#PCDATA)>\n$")
    assert str(err.value) == "line 2: expected a DTD token, found '$'"


@pytest.mark.parametrize("text, message", [
    ("<!ELEMENT>", "line 1: expected an element name, found '>'"),
    ("<!ELEMENT A (B)>\n<!ELEMENT", "line 2: expected an element name, found 'end of input'"),
    ("<!ELEMENT%e; (B)>", "line 1: expected an element name, found '%e;'"),
    ("<!ELEMENTS A (B)>", "line 1: expected <!ELEMENT, found '<!ELEMENTS'"),
    ("<!ELEMENT1 A (B)>", "line 1: expected <!ELEMENT, found '<!ELEMENT1'"),
])
def test_a_declaration_keyword_is_read_up_to_the_end_of_its_name(text, message):
    # what follows <!ELEMENT is either part of the keyword or the next token
    with pytest.raises(DtdSyntaxError) as err:
        parse_dtd(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, line", [
    ("<!ELEMENT A (B, (#PCDATA))>", 1),
    ("<!ELEMENT A (B,\n #PCDATA)>", 2),
])
def test_pcdata_among_child_elements_is_mixed_content(text, line):
    with pytest.raises(MixedContent) as err:
        parse_dtd(text)
    assert err.value.line == line


@pytest.mark.parametrize("text, error, message", [
    ("<!ELEMENT A EMPTY>\n<!ATTLIST A x CDATA #IMPLIED>", DtdSyntaxError,
     "line 1: expected a parenthesized content model (EMPTY is not supported), "
     "found 'EMPTY'"),
    ('<!ATTLIST A x CDATA "d">', DtdSyntaxError,
     "line 1: expected <!ELEMENT, found '<!ATTLIST'"),
    ("<!ELEMENT A (#PCDATA)>\n<!ELEMENT A (#PCDATA)>\n<!ELEMENT C (",
     DuplicateDeclaration, "line 2: element A declared twice"),
    ("<!ELEMENT a:b (#PCDATA)>\n<!ELEMENT C (", DtdSyntaxError,
     "line 1: expected an element name without ':', found 'a:b'"),
])
def test_the_first_error_in_the_text_is_reported(text, error, message):
    # a later line that no token matches, or that breaks off, comes second
    with pytest.raises(error) as err:
        parse_dtd(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text", [
    "<!ELEMENT A (#PCDATA)*>",
    "<!ELEMENT A (#PCDATA) <!-- any number of -->\n*>",
])
def test_pcdata_star_is_pcdata(text):
    # XML 1.0 production [51] allows the * form of a character-data group
    assert parse_dtd(text).elements == {"A": PCData()}
    assert format_dtd(parse_dtd(text)) == "<!ELEMENT A (#PCDATA)>\n"


@pytest.mark.parametrize("mult", ["+", "?", "**"])
def test_pcdata_takes_no_other_multiplicity(mult):
    with pytest.raises(DtdSyntaxError) as err:
        parse_dtd(f"<!ELEMENT A (#PCDATA){mult}>")
    assert str(err.value) == f"line 1: expected >, found '{mult[-1]}'"


@pytest.mark.parametrize("newline, line", [
    ("\n", 4), ("\r", 4), ("\r\n", 4), ("\n\r", 7), ("\r\n\r", 7),
])
def test_cr_lf_and_crlf_each_end_one_line(newline, line):
    text = f"<!-- a{newline}b -->{newline}<!ELEMENT A (B)>{newline}<!ELEMENT B ()>{newline}"
    with pytest.raises(DtdSyntaxError) as err:
        parse_dtd(text)
    assert err.value.line == line


def test_syntax_error_carries_line_and_found_token():
    with pytest.raises(DtdSyntaxError) as err:
        parse_dtd("<!ELEMENT A (B)>\n<!ELEMENT B ()>\n")
    assert err.value.line == 2


def test_empty_input_has_no_declarations():
    with pytest.raises(DtdSyntaxError):
        parse_dtd("")
    with pytest.raises(DtdSyntaxError):
        parse_dtd("   \n  ")


def test_format_parse_fixpoint_on_the_bundled_dtd():
    schema = builtin_schema()
    assert parse_dtd(format_dtd(schema)) == schema


def test_format_parse_fixpoint_on_awkward_models():
    text = ("<!ELEMENT A ((X?)*, (X | (Y, Z))?)>\n"
            "<!ELEMENT X (#PCDATA)>\n<!ELEMENT Y (#PCDATA)>\n"
            "<!ELEMENT Z (#PCDATA)>\n")
    schema = parse_dtd(text)
    assert parse_dtd(format_dtd(schema)) == schema


def test_bundled_text_is_what_the_parser_consumed():
    # the resource file itself must stay parseable on its own
    assert parse_dtd(builtin_dtd_text()).root == "COMPLEX_OBJECT"


# -- matching ---------------------------------------------------------------------


def model_of(text):
    return parse_dtd(text).elements["A"]


def match(model, names):
    return _Automaton(model).match(names)


def test_matching_is_greedy_but_backtracks():
    # B* followed by a required B forces the star to give one back
    model = model_of("<!ELEMENT A (B*, B)>\n<!ELEMENT B (#PCDATA)>")
    assert match(model, ["B", "B", "B"]) == (ITERATE, ITERATE, STOP)
    assert match(model, []) == _Failure(0, {"B"})


def test_choice_tries_alternatives_in_order():
    model = model_of("<!ELEMENT A (B | C)>\n<!ELEMENT B (#PCDATA)>"
                     "<!ELEMENT C (#PCDATA)>")
    assert match(model, ["C"]) == (1,)


def test_plus_requires_at_least_one():
    model = model_of("<!ELEMENT A (B+)>\n<!ELEMENT B (#PCDATA)>")
    assert match(model, []) == _Failure(0, {"B"})
    assert match(model, ["B", "B"]) == (ITERATE, ITERATE, STOP)


def test_nullable():
    schema = parse_dtd("<!ELEMENT A (B?, C*)>\n<!ELEMENT B (#PCDATA)>"
                       "<!ELEMENT C (#PCDATA)>")
    assert nullable(schema.elements["A"])
    assert not nullable(ElementRef("B"))
    assert nullable(PCData())


# -- validation -------------------------------------------------------------------


def doc(text):
    return ET.fromstring(text)


def test_valid_document_passes(schema):
    tree = doc("<COMPLEX_OBJECT><OBJ_NAME>n</OBJ_NAME><DATE>d</DATE>"
               "<SOURCE>s</SOURCE><SUBDOCUMENT><DOC_NAME>x</DOC_NAME>"
               "<TYPE>Image</TYPE><SIZE>1</SIZE><LOCATION>l</LOCATION>"
               "<IMAGE><COMPRESSION/><FORMAT>Gif</FORMAT><RESOLUTION/>"
               "<LENGTH>2</LENGTH><WIDTH>3</WIDTH></IMAGE>"
               "</SUBDOCUMENT></COMPLEX_OBJECT>")
    report = validate(tree, schema)
    assert report.valid
    assert report.violations == ()


def test_wrong_root_is_reported(schema):
    report = validate(doc("<SUBDOC/>"), schema)
    assert not report.valid
    assert "COMPLEX_OBJECT" in str(report.violations[0])


def test_missing_required_child_points_at_the_gap(schema):
    tree = doc("<COMPLEX_OBJECT><OBJ_NAME>n</OBJ_NAME><SOURCE>s</SOURCE>"
               "</COMPLEX_OBJECT>")
    report = validate(tree, schema)
    assert not report.valid
    message = str(report.violations[0])
    assert "at child 2" in message
    assert "DATE" in message


def test_character_data_between_children_is_a_violation(schema):
    tree = doc("<COMPLEX_OBJECT>stray<OBJ_NAME>n</OBJ_NAME><DATE>d</DATE>"
               "<SOURCE>s</SOURCE></COMPLEX_OBJECT>")
    report = validate(tree, schema)
    assert any("character data" in str(v) for v in report.violations)


@pytest.mark.parametrize("text, count", [
    ("<R><A/>x<B/></R>", 1),
    ("<R>y<A/>x<B/>z</R>", 2),
])
def test_character_data_after_a_child_is_one_violation(text, count):
    # text before the first child and text after any child are one each
    schema = parse_dtd("<!ELEMENT R (A, B)>\n<!ELEMENT A (#PCDATA)>\n"
                       "<!ELEMENT B (#PCDATA)>")
    report = validate(doc(text), schema)
    assert [str(v) for v in report.violations] == count * [
        "/R: character data is not allowed between child elements (expected (A, B))"]


def test_whitespace_between_children_is_fine(schema):
    tree = doc("<COMPLEX_OBJECT>\n  <OBJ_NAME>n</OBJ_NAME>\n  <DATE>d</DATE>"
               "\n  <SOURCE>s</SOURCE>\n  <SUBDOCUMENT><DOC_NAME>x</DOC_NAME>"
               "<TYPE>Image</TYPE><SIZE>1</SIZE><LOCATION>l</LOCATION>"
               "<IMAGE><COMPRESSION/><FORMAT/><RESOLUTION/>"
               "<LENGTH>2</LENGTH><WIDTH>3</WIDTH></IMAGE>"
               "</SUBDOCUMENT>\n</COMPLEX_OBJECT>")
    assert validate(tree, schema).valid


def test_leaf_with_children_is_a_violation(schema):
    tree = doc("<COMPLEX_OBJECT><OBJ_NAME><X/></OBJ_NAME><DATE>d</DATE>"
               "<SOURCE>s</SOURCE><SUBDOCUMENT><DOC_NAME>x</DOC_NAME>"
               "<TYPE>Image</TYPE><SIZE>1</SIZE><LOCATION>l</LOCATION>"
               "<IMAGE><COMPRESSION/><FORMAT/><RESOLUTION/>"
               "<LENGTH>2</LENGTH><WIDTH>3</WIDTH></IMAGE>"
               "</SUBDOCUMENT></COMPLEX_OBJECT>")
    report = validate(tree, schema)
    assert any("leaf element" in str(v) for v in report.violations)


def test_undeclared_element_is_reported_with_its_path(schema):
    tree = doc("<COMPLEX_OBJECT><OBJ_NAME>n</OBJ_NAME><DATE>d</DATE>"
               "<SOURCE>s</SOURCE><BONUS/></COMPLEX_OBJECT>")
    report = validate(tree, schema)
    assert any(v.path == "/COMPLEX_OBJECT/BONUS" and "not declared" in v.message
               for v in report.violations)


def test_sibling_paths_carry_indexes(schema):
    tree = doc("<COMPLEX_OBJECT><OBJ_NAME>n</OBJ_NAME><DATE>d</DATE>"
               "<SOURCE>s</SOURCE>"
               "<SUBDOCUMENT><DOC_NAME>a</DOC_NAME><TYPE>Image</TYPE>"
               "<SIZE>1</SIZE><LOCATION>l</LOCATION>"
               "<IMAGE><COMPRESSION/><FORMAT/><RESOLUTION/>"
               "<LENGTH>2</LENGTH><WIDTH>3</WIDTH></IMAGE></SUBDOCUMENT>"
               "<SUBDOCUMENT><DOC_NAME>b</DOC_NAME><TYPE>Image</TYPE>"
               "<SIZE>1</SIZE><LOCATION>l</LOCATION><IMAGE><COMPRESSION/>"
               "<FORMAT/><RESOLUTION/><LENGTH>2</LENGTH><WIDTH>0bad</WIDTH>"
               "<EXTRA/></IMAGE></SUBDOCUMENT></COMPLEX_OBJECT>")
    report = validate(tree, schema)
    assert any(v.path.startswith("/COMPLEX_OBJECT/SUBDOCUMENT[2]/IMAGE")
               for v in report.violations)


def view_document(n):
    """A valid object holding one two-column view of n tuples."""
    tuples = "".join(
        f"<TUPLE><ATT_NAME_REF>k</ATT_NAME_REF><VALUE>{i}</VALUE>"
        f"<ATT_NAME_REF>v</ATT_NAME_REF><VALUE>x</VALUE></TUPLE>"
        for i in range(n))
    return doc("<COMPLEX_OBJECT><OBJ_NAME>n</OBJ_NAME><DATE>d</DATE>"
               "<SOURCE>s</SOURCE><SUBDOCUMENT><DOC_NAME>v</DOC_NAME>"
               "<TYPE>Relational view</TYPE><SIZE>1</SIZE>"
               "<LOCATION>v.csv</LOCATION><RELATIONAL_VIEW>"
               "<ATTRIBUTE><ATT_NAME>k</ATT_NAME><DOMAIN>string</DOMAIN></ATTRIBUTE>"
               "<ATTRIBUTE><ATT_NAME>v</ATT_NAME><DOMAIN>string</DOMAIN></ATTRIBUTE>"
               + tuples + "</RELATIONAL_VIEW></SUBDOCUMENT></COMPLEX_OBJECT>")


def test_each_child_shape_is_matched_once_per_document(schema, monkeypatch):
    calls = []
    match = _Automaton.match

    def counting(self, names):
        calls.append(names)
        return match(self, names)

    monkeypatch.setattr(_Automaton, "match", counting)
    counts = []
    for n in (3, 300):
        before = len(calls)
        assert validate(view_document(n), schema).valid
        counts.append(len(calls) - before)
    assert counts[0] == counts[1]


def test_violations_among_repeated_shapes_keep_their_paths(schema):
    document = view_document(300)
    view = document.find("SUBDOCUMENT/RELATIONAL_VIEW")
    tuples = view.findall("TUPLE")
    tuples[6].append(ET.Element("BONUS"))                # TUPLE[7]
    tuples[8][1].append(ET.Element("X"))                 # TUPLE[9]/VALUE[1]
    for k in (11, 13):                                   # TUPLE[12], TUPLE[14]
        first = tuples[k][0]
        tuples[k].remove(first)
        tuples[k].insert(1, first)
    report = validate(document, schema)
    view_path = "/COMPLEX_OBJECT/SUBDOCUMENT/RELATIONAL_VIEW"
    model = "(ATT_NAME_REF, VALUE)+"
    assert [str(v) for v in report.violations] == [
        f"{view_path}/TUPLE[7]: children do not match the content model: at "
        f"child 5 expected one of {{ATT_NAME_REF, end of children}}, found "
        f"BONUS (expected {model})",
        f"{view_path}/TUPLE[7]/BONUS: element BONUS is not declared",
        f"{view_path}/TUPLE[9]/VALUE[1]: leaf element must not contain child "
        f"elements (expected (#PCDATA))",
        f"{view_path}/TUPLE[12]: children do not match the content model: at "
        f"child 1 expected one of {{ATT_NAME_REF}}, found VALUE (expected {model})",
        f"{view_path}/TUPLE[14]: children do not match the content model: at "
        f"child 1 expected one of {{ATT_NAME_REF}}, found VALUE (expected {model})",
    ]
    assert tuples[6] not in report.matches and tuples[11] not in report.matches
    assert report.matches[tuples[8]] is report.matches[tuples[0]]


def test_a_failing_shape_is_matched_once_and_each_element_reported(schema,
                                                                   monkeypatch):
    n = 50
    document = view_document(n)
    for tup in document.iter("TUPLE"):
        tup.remove(tup[-1])                       # each lacks its last cell
    automaton = schema._automata["TUPLE"]
    calls, renders = [], []

    def counting(names):
        calls.append(names)
        return _Automaton.match(automaton, names)

    def counting_render(model):
        renders.append(model)
        return render_model(model)

    monkeypatch.setattr(automaton, "match", counting)
    monkeypatch.setattr("multiform.dtd.render_model", counting_render)
    report = validate(document, schema)
    view_path = "/COMPLEX_OBJECT/SUBDOCUMENT/RELATIONAL_VIEW"
    assert len(calls) == 1
    assert len(renders) == 1
    assert [str(v) for v in report.violations] == [
        f"{view_path}/TUPLE[{k}]: children do not match the content model: at "
        f"child 4 expected one of {{VALUE}}, found end of children "
        f"(expected (ATT_NAME_REF, VALUE)+)"
        for k in range(1, n + 1)]
    assert not any(tup in report.matches for tup in document.iter("TUPLE"))
