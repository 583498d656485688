"""Property tests for the two text parsers: graph files (`store`/`load`) and
word files (`parse_word`). Each accepts its own output and rejects any other
text only with its typed error."""

from hypothesis import given, settings, strategies as st

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
