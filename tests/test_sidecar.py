import pytest

from multiform.errors import MalformedSidecarLine, UnknownSidecarKey
from multiform.sidecar import EMPTY, SidecarRecord, override, parse_sidecar


def test_scalars_and_keywords():
    record = parse_sidecar(
        "keyword: surf\n"
        "keyword: black and white\n"
        "keyword: wave\n"
        "language: English\n"
        "resolution: 72dpi\n"
    )
    assert record.keywords == ("surf", "black and white", "wave")
    assert record.language == "English"
    assert record.resolution == "72dpi"
    assert record.duration is None


def test_a_byte_order_mark_is_skipped():
    assert parse_sidecar("\ufeffkeyword: a\n").keywords == ("a",)


def test_keys_are_case_insensitive():
    record = parse_sidecar("Keyword: a\nLANGUAGE: fr\nSpeed: 24 fps\n")
    assert record.keywords == ("a",)
    assert record.language == "fr"
    assert record.speed == "24 fps"


def test_comments_and_blank_lines_are_skipped():
    record = parse_sidecar("# capture notes\n\n  \nname: Surf\n")
    assert record.name == "Surf"


def test_repeated_scalar_keeps_the_last_value():
    assert parse_sidecar("source: A\nsource: B\n").source == "B"


def test_value_may_contain_colons():
    assert parse_sidecar("query: SELECT a FROM t WHERE x: is odd\n").query == \
        "SELECT a FROM t WHERE x: is odd"


def test_domain_keys_keep_attribute_case():
    record = parse_sidecar("domain.Age: integer\nDOMAIN.name: string\n")
    assert record.domains == {"Age": "integer", "name": "string"}


def test_unknown_key_is_rejected_with_line_number():
    with pytest.raises(UnknownSidecarKey) as err:
        parse_sidecar("keyword: ok\nwidth: 100\n")
    assert err.value.line == 2
    assert err.value.key == "width"


def test_bare_domain_prefix_is_rejected():
    with pytest.raises(UnknownSidecarKey):
        parse_sidecar("domain.: integer\n")


def test_line_without_separator_is_malformed():
    with pytest.raises(MalformedSidecarLine) as err:
        parse_sidecar("keyword surf\n")
    assert err.value.line == 1


def test_empty_text_gives_the_empty_record():
    assert parse_sidecar("") == EMPTY


def test_override_layers_explicit_values():
    base = SidecarRecord(language="en", source="Web")
    layered = override(base, language="fr", name=None, keywords=())
    assert layered.language == "fr"
    assert layered.source == "Web"   # untouched
    assert layered.name is None      # None means "not given", not "clear"
    assert layered.keywords == ()


def test_override_without_updates_returns_the_record():
    base = SidecarRecord(language="en")
    assert override(base, language=None) is base
