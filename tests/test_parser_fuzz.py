"""Bounded mutation fuzz of the chart and TikZ parsers and the format validators.

Valid serialized charts and scenes are edited by inserting, deleting and
replacing characters and by cutting the text short; each parser must accept the
result or reject it with its own error type, never with any other exception,
and the error's line and column must point inside the text (a column may be
one past the end of its line). Each validator, run on a valid document of its
own format edited the same way, must report only such positions. Every
mutated dict-form chart the chart reader accepts must read the same through
``ast.literal_eval``, an oracle that shares no code with the reader.
"""

import ast

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ocrkit.charts import (
    _META_KEYS,
    ChartParseError,
    gen_chart_struct,
    parse_chart_output,
    serialize_chart_struct,
)
from ocrkit.geometry import emit_tikz, gen_scene
from ocrkit.tikz import TikzParseError, parse_tikz_subset
from ocrkit.validators import VALIDATORS, _lines_of

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


# NUL and digits outside ASCII (Arabic-Indic three, full-width one), which Python's
# literals refuse, drawn often enough to land inside a string or a number
_ORACLE_CHARS = st.sampled_from("\x00\u0663\uff11") | _CHARS
_DICT_TEXTS = st.builds(
    lambda seed, edits: _mutate(serialize_chart_struct(gen_chart_struct(seed)[0], "dict"), edits),
    st.integers(0, 2**31),
    st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace", "truncate"]),
                       st.integers(0, 10**6), _ORACLE_CHARS), max_size=4),
)


@given(_DICT_TEXTS)
@example('{"values": {"s": {"a": \u0663, "b": \uff11\uff12}}}')
@example('{"values": {"a\x00b": {}}}')
@settings(max_examples=400, deadline=None)
def test_accepted_dict_text_reads_the_same_as_a_python_literal(text):
    try:
        struct = parse_chart_output(text)
    except ChartParseError:
        return
    if not text.lstrip().startswith("{"):
        return  # a mutation made it a table-form text
    # the whitespace around the literal is no part of it: Python reads a space or tab
    # after a line break there as indentation
    value = ast.literal_eval(text.strip(" \t\r\n"))
    assert type(value) is dict
    meta = {key: getattr(struct, key) for key in _META_KEYS if getattr(struct, key) is not None}
    assert {key: v for key, v in value.items() if key != "values"} == meta
    # the reader strips series names and labels; values compare as floats
    series = [(name.strip(), [(label.strip(), float(v)) for label, v in points.items()])
              for name, points in value["values"].items()]
    assert series == [(s.name, list(s.points)) for s in struct.series]


# Valid documents that reach every check of their validator: math, environments,
# tables and fences; bracket atoms, branches, bonds and ring labels; spines,
# comments, barlines, chords and beams.
_VALID = {
    "markdown": (
        "# Title\n\nInline \\(a+b\\) and $x$, display $$y$$ and \\[z\\].\n\n"
        "\\begin{align}\nx &= 1\n\\end{align}\n\n| a | b |\n| --- | --- |\n| 1 | 2 |\n\n"
        "```\ncode $ \\(\n```\n",
        "Price \\$5, \\begin{matrix} \\(q\\) \\end{matrix}\n| x |\n| y |\n",
    ),
    "smiles": (
        "CC(=O)Oc1ccccc1C(=O)O",
        "C[C@@H](N)C(=O)O.[Na+].[Cl-]",
        "C1CC%12CC(Br)C1%12",
        "F/C=C\\Cl",
        "[13CH4]#N",
    ),
    "kern": (
        "**kern\n4c\n*-",
        "!! global comment\n**kern\t**kern\n*clefF4\t*clefG2\n! local\t! comment\n"
        "=1\t=1\n4c 4e\t8ccLL\n.\t8ddJJ\n=2\t=2\n*-\t*-\n",
    ),
}


def _valid_document(kind: str, seed: int) -> str:
    if kind == "tikz":
        return emit_tikz(gen_scene(seed)).source
    return _VALID[kind][seed % len(_VALID[kind])]


@pytest.mark.parametrize("kind", sorted(VALIDATORS))
@given(seed=st.integers(0, 2**31), edits=_EDITS)
@settings(max_examples=300, deadline=None)
def test_validator_issues_point_inside_mutated_documents(kind, seed, edits):
    document = _valid_document(kind, seed)
    assert VALIDATORS[kind](document).ok
    text = _mutate(document, edits)
    report = VALIDATORS[kind](text)
    assert report.ok == (not report.issues)
    lines = _lines_of(text) or [""]  # no line at all: issues sit at 1:1
    for issue in report.issues:
        assert 1 <= issue.line <= len(lines), (issue, text)
        assert 1 <= issue.column <= len(lines[issue.line - 1]) + 1, (issue, text)
