"""Bounded mutation fuzz of the chart and TikZ parsers.

Valid serialized charts and scenes are edited by inserting, deleting and
replacing characters and by cutting the text short; each parser must accept the
result or reject it with its own error type, never with any other exception,
and the error's line and column must point inside the text (a column may be
one past the end of its line).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ocrkit.charts import (
    ChartParseError,
    gen_chart_struct,
    parse_chart_output,
    serialize_chart_struct,
)
from ocrkit.geometry import TikzParseError, emit_tikz, gen_scene, parse_tikz_subset

# Characters the two grammars give meaning to, plus a few that neither uses.
_SYNTAX = "{}[]()'\":,;|=*.-+eE0123456789 \t\n\\drawplotcycle中é"
_CHARS = st.sampled_from(_SYNTAX) | st.characters()
_EDIT = st.tuples(
    st.sampled_from(["insert", "delete", "replace", "truncate"]), st.integers(0, 10**6), _CHARS
)


def _mutate(text: str, edits) -> str:
    for op, at, char in edits:
        i = at % (len(text) + 1)
        if op == "insert":
            text = text[:i] + char + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1 :]
        elif op == "truncate":
            text = text[:i]
        else:
            text = text[:i] + char + text[i + 1 :]
    return text


_EDITS = st.lists(_EDIT, min_size=1, max_size=4)


def _assert_points_inside(text: str, exc: ChartParseError | TikzParseError) -> None:
    lines = text.split("\n")
    assert 1 <= exc.line <= len(lines), (exc, text)
    assert 1 <= exc.column <= len(lines[exc.line - 1]) + 1, (exc, text)


@given(st.integers(0, 2**31), st.sampled_from(["dict", "table"]), _EDITS)
@settings(max_examples=200, deadline=None)
def test_chart_parser_accepts_or_raises_its_own_error(seed, form, edits):
    struct, _ = gen_chart_struct(seed)
    text = _mutate(serialize_chart_struct(struct, form), edits)
    try:
        parse_chart_output(text)
    except ChartParseError as exc:
        _assert_points_inside(text, exc)


@given(st.integers(0, 2**31), _EDITS)
@settings(max_examples=200, deadline=None)
def test_tikz_parser_accepts_or_raises_its_own_error(seed, edits):
    text = _mutate(emit_tikz(gen_scene(seed)).source, edits)
    try:
        parse_tikz_subset(text)
    except TikzParseError as exc:
        _assert_points_inside(text, exc)
