"""Property tests for the two text parsers: graph files (`store`/`load`) and
word files (`parse_word`). Each accepts its own output and rejects any other
text only with its typed error."""

import pytest
from hypothesis import example, given, settings, strategies as st

from expander_codes import (
    BipartiteGraph,
    GraphFormatError,
    InvalidInput,
    Word,
    format_word,
    load,
    parse_word,
    store,
)

SETTINGS = settings(max_examples=200, derandomize=True, database=None)


@st.composite
def graphs(draw):
    # D = 0 included: each row is then stored as a blank line
    n = draw(st.integers(0, 8))
    m = draw(st.integers(1, 8))
    d = draw(st.integers(0, m))
    rows = tuple(
        tuple(sorted(draw(st.sets(st.integers(0, m - 1), min_size=d, max_size=d))))
        for _ in range(n)
    )
    return BipartiteGraph(n, m, d, rows)


# short lines over the symbols a graph file uses, plus a few it must reject
graph_texts = st.lists(
    st.text(alphabet="0123456789 -#x\t", max_size=12), max_size=8
).map("\n".join)


@SETTINGS
@given(graphs())
def test_store_load_round_trip(g):
    assert load(store(g)) == g


@SETTINGS
@given(st.one_of(graph_texts, st.text(max_size=40)))
def test_load_raises_only_graph_format_error(text):
    try:
        g = load(text)
    except GraphFormatError:
        return
    assert isinstance(g, BipartiteGraph)
    assert load(store(g)) == g


@SETTINGS
@given(st.one_of(st.text(alphabet="01? \n", max_size=20), st.text(max_size=20)))
def test_parse_word_raises_only_invalid_input(text):
    try:
        w = parse_word(text)
    except InvalidInput:
        return
    assert isinstance(w, Word)
    assert parse_word(format_word(w)) == w


def _parse_word_by_char(text):
    """The former parser, one character at a time: the reference for its
    error message."""
    line = text.strip()
    bits = erasures = 0
    for i, ch in enumerate(line):
        if ch == "1":
            bits |= 1 << i
        elif ch == "?":
            erasures |= 1 << i
        elif ch != "0":
            raise InvalidInput(f"position {i}: invalid symbol {ch!r}")
    return Word(len(line), bits, erasures)


# a short line, or one repeated past the 4300 digits int() limits in base 10
word_texts = st.one_of(
    st.text(alphabet="01?", max_size=40),
    st.builds(lambda s, k: s * k, st.text(alphabet="01?", min_size=1, max_size=20),
              st.integers(1, 600)),
)


@SETTINGS
@given(word_texts)
@example("")
@example("1" * 5000)
@example("?" * 4301 + "1")
def test_format_parse_round_trip(text):
    assert format_word(parse_word(text)) == text


@SETTINGS
@given(word_texts, st.integers(0, 10**4), st.characters(exclude_characters="01?"))
def test_parse_word_reports_the_first_bad_symbol(text, at, bad):
    text = text[:at] + bad + text[at:]
    try:
        want = _parse_word_by_char(text)
    except InvalidInput as exc:
        with pytest.raises(InvalidInput) as got:
            parse_word(text)
        assert str(got.value) == str(exc)
    else:  # the bad character was whitespace at an end, and stripped
        assert parse_word(text) == want
