"""Bounded mutation fuzz of the chart and TikZ parsers and the format validators.

Valid serialized charts and scenes are edited by inserting, deleting and
replacing characters and by cutting the text short; each parser must accept the
result or reject it with its own error type, never with any other exception,
and the error's line and column must point inside the text (a column may be
one past the end of its line). Each validator, run on a valid document of its
own format edited the same way, must report only such positions. Every
mutated dict-form chart the chart reader accepts must read the same through
``ast.literal_eval``, and every mutated table-form chart the same when its rows
are split on ``|``: oracles that share no code with the reader. Texts written
by the documented grammar of either form, independently of the reader, must
read the same through the reader and the oracle. Texts of the documented TikZ
subset, written without the reader, must read as the scene built alongside
them, and every mutated one the reader accepts must read back from its
emission as the same scene.
"""

import ast
import re
from decimal import Decimal

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ocrkit.charts import (
    _META_KEYS,
    ChartParseError,
    gen_chart_struct,
    parse_chart_output,
    serialize_chart_struct,
)
from ocrkit.geometry import (
    ALL_KINDS,
    Circle,
    Curve,
    GeomScene,
    Point,
    Rectangle,
    Segment,
    Triangle,
    emit_tikz,
    gen_scene,
)
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
    text = _mutate(emit_tikz(gen_scene(seed)), edits)
    try:
        parse_tikz_subset(text)
    except TikzParseError as exc:
        _assert_points_inside(text, exc)


# NUL, lone surrogates and digits outside ASCII (Arabic-Indic three, full-width one),
# which Python's literals refuse, drawn often enough to land inside a string or a number
_ORACLE_CHARS = st.sampled_from("\x00\ud800\udfff\u0663\uff11") | _CHARS


def _mutated_chart_texts(form: str):
    return st.builds(
        lambda seed, edits: _mutate(serialize_chart_struct(gen_chart_struct(seed)[0], form), edits),
        st.integers(0, 2**31),
        st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace", "truncate"]),
                           st.integers(0, 10**6), _ORACLE_CHARS), max_size=4),
    )


def _assert_reads_as_python_literal(struct, text: str) -> None:
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


@given(_mutated_chart_texts("dict"))
@example('{"values": {"s": {"a": \u0663, "b": \uff11\uff12}}}')
@example('{"values": {"a\x00b": {}}}')
@example('{"values": {"\ud800": {}}}')
@settings(max_examples=400, deadline=None)
def test_accepted_dict_text_reads_the_same_as_a_python_literal(text):
    try:
        struct = parse_chart_output(text)
    except ChartParseError:
        return
    if text.lstrip().startswith("{"):  # else a mutation made it a table-form text
        _assert_reads_as_python_literal(struct, text)


# The documented dict subset, written independently of the reader: the escapes it
# takes and what each stands for.
_ESCAPED = {"\\\\": "\\", "\\'": "'", '\\"': '"', "\\n": "\n", "\\t": "\t", "\\r": "\r"}
# a string's pieces: a raw character, a quote (escaped when it is the delimiter) or an escape
_PIECES = st.lists(
    st.characters(exclude_categories=("Cs",), exclude_characters="\\'\"\r\n\0")
    | st.sampled_from(["'", '"', *_ESCAPED]),
    max_size=6,
)
_DIGITS = st.text("0123456789", min_size=1, max_size=3)
_FLOAT = st.builds("{}.{}".format, _DIGITS, st.text("0123456789", max_size=3)) | st.builds(
    ".{}".format, _DIGITS
)
_EXPONENT = st.builds(
    "{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
    st.text("0123456789", min_size=1, max_size=2),
)
# only an integer without fraction or exponent may not start with 0, unless it is zero
_NUMBER = st.builds(
    "{}{}".format,
    st.sampled_from(["", "-"]),
    st.sampled_from(["0", "00"])
    | st.from_regex(r"[1-9][0-9]{0,2}", fullmatch=True)
    | _FLOAT
    | st.builds("{}{}".format, _DIGITS | _FLOAT, _EXPONENT),
)


def _decoded(pieces: list[str]) -> str:
    return "".join(_ESCAPED.get(piece, piece) for piece in pieces)


@st.composite
def _subset_dict_texts(draw) -> str:
    def ws() -> str:  # the whitespace the subset skips between tokens
        return draw(st.text(" \t\r\n", max_size=2))

    def string(pieces: list[str]) -> str:
        quote = draw(st.sampled_from("'\""))
        body = "".join("\\" + piece if piece == quote else piece for piece in pieces)
        return ws() + quote + body + quote + ws()

    def mapping(entries: list[tuple[str, str]]) -> str:
        body = ",".join(f"{key}:{value}" for key, value in entries)
        comma = draw(st.sampled_from(["", ","])) if entries else ""
        return ws() + "{" + body + comma + ws() + "}" + ws()

    def keys(max_size: int) -> list[list[str]]:  # the reader strips names and labels
        return draw(st.lists(_PIECES, max_size=max_size,
                             unique_by=lambda pieces: _decoded(pieces).strip()))

    series = [
        (string(name), mapping([(string(label), ws() + draw(_NUMBER) + ws())
                                for label in keys(4)]))
        for name in keys(3)
    ]
    entries = [(string(list(key)), string(draw(_PIECES)))
               for key in draw(st.lists(st.sampled_from(_META_KEYS), unique=True))]
    entries.append((string(list("values")), mapping(series)))
    return mapping(draw(st.permutations(entries)))


@given(_subset_dict_texts())
@settings(max_examples=300, deadline=None)
def test_every_text_of_the_documented_dict_subset_reads_as_a_python_literal(text):
    _assert_reads_as_python_literal(parse_chart_output(text), text)


def _read_table(text: str) -> tuple[dict[str, str], list[tuple[str, list[tuple[str, float]]]]]:
    """The table form as README describes it, read by splitting rows on '|'."""
    text.encode("utf-8")  # a record file holds only what UTF-8 encodes
    meta: dict[str, str] = {}
    rows: list[list[str]] = []
    for line in text.split("\n"):
        line = line.strip()
        if line.startswith("|"):
            # one pipe opens a row, and one closes it unless it was left out
            rows.append([cell.strip() for cell in line[1:].removesuffix("|").split("|")])
        elif line:
            assert not rows, "metadata after the table"
            key, value = line.split(":", 1)
            meta[key.strip().lower().replace("-", "_")] = value.strip()
    header, *body = rows
    # markdown's delimiter rows: dashes, each cell with an optional colon at either end
    body = [row for row in body if not all(re.fullmatch(":?-+:?", cell) for cell in row)]
    assert all(len(row) == len(header) for row in body)
    return meta, [(name, [(row[0], float(row[col])) for row in body])
                  for col, name in enumerate(header[1:], 1)]


def _assert_reads_as_table(struct, text: str) -> None:
    meta, series = _read_table(text)
    assert meta == {key: getattr(struct, key) for key in _META_KEYS
                    if getattr(struct, key) is not None}
    assert series == [(s.name, list(s.points)) for s in struct.series]


@given(_mutated_chart_texts("table"))
@example("| label | s\ud800 |\n| --- | --- |\n| a\udfff | 1 |\n")
@settings(max_examples=400, deadline=None)
def test_accepted_table_text_reads_the_same_split_on_pipes(text):
    try:
        struct = parse_chart_output(text)
    except ChartParseError:
        return
    if not text.lstrip().startswith("{"):  # else a mutation made it a dict-form text
        _assert_reads_as_table(struct, text)


# a table cell: no pipe, no line break and no lone surrogate; the reader strips it
_CELL = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="|\n"), max_size=6)


@st.composite
def _subset_table_texts(draw) -> str:
    def ws() -> str:  # the whitespace a stripped line or cell may carry
        return draw(st.text(" \t", max_size=2))

    def row(cells: list[str]) -> str:
        return ws() + "|" + "|".join(ws() + cell + ws() for cell in cells) + "|" + ws()

    def blank_lines() -> list[str]:
        return draw(st.lists(st.text(" \t", max_size=2), max_size=1))

    names = draw(st.lists(_CELL, min_size=1, max_size=3, unique_by=str.strip))
    labels = draw(st.lists(_CELL, max_size=4, unique_by=str.strip))
    lines = []
    for key in draw(st.lists(st.sampled_from(_META_KEYS), unique=True)):
        value = draw(st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n"),
                             max_size=6))
        lines += [ws() + key + ws() + ":" + ws() + value, *blank_lines()]
    lines.append(row([draw(_CELL)] + names))
    lines.append(row([draw(st.from_regex(":?-+:?", fullmatch=True)) for _ in [None, *names]]))
    for label in labels:
        lines += [row([label] + [draw(_NUMBER) for _ in names]), *blank_lines()]
    return "\n".join(lines)


@given(_subset_table_texts())
@settings(max_examples=300, deadline=None)
def test_every_text_of_the_documented_table_subset_reads_as_split_on_pipes(text):
    _assert_reads_as_table(parse_chart_output(text), text)


# The TikZ subset as README documents it, written without the reader: every element
# kind, a run of spaces and tabs before any token, and each number in any of its
# forms (leading zeros, trailing fraction zeros, a minus on zero). The pieces README
# reads whole stay whole. Alongside each text goes the scene it must read as.
@st.composite
def _subset_tikz_texts(draw) -> tuple[str, GeomScene]:
    def line(*tokens: str) -> str:
        return "".join(draw(st.text(" \t", max_size=2)) + token for token in tokens)

    def hundredths(positive: bool = False) -> int:
        # tenths and zero come often, so '1.50', '7.00', '-0' and '-0.0' turn up
        h = draw(st.integers(-1500, 1500) | st.integers(-150, 150).map(lambda t: t * 10)
                 | st.just(0))
        return (abs(h) or 1) if positive else h

    def digits(h: int) -> str:  # |h| hundredths: '007', '1.50', '0.0', '2.07'
        whole, fraction = divmod(abs(h), 100)
        fraction_digits = f"{fraction:02d}"
        cut = draw(st.integers(len(fraction_digits.rstrip("0")), 2))
        return "0" * draw(st.integers(0, 2)) + str(whole) + "." * (cut > 0) + fraction_digits[:cut]

    def negative(h: int) -> bool:
        return h < 0 or (h == 0 and draw(st.booleans()))

    def number(h: int) -> str:  # one token, its minus included
        return "-" * negative(h) + digits(h)

    def signed(h: int, first: bool) -> tuple[str, ...]:  # a sign token, then the digits
        if negative(h):
            return ("-", digits(h))
        return (digits(h),) if first else ("+", digits(h))

    def point() -> tuple[Point, tuple[str, ...]]:
        x, y = hundredths(), hundredths()
        return Point(Decimal(x) / 100, Decimal(y) / 100), ("(", number(x), ",", number(y), ")")

    def domain() -> tuple[list[Decimal], tuple[str, ...]]:
        lo, hi = sorted((hundredths(), hundredths()))
        if lo == hi:
            hi += 1
        return [Decimal(lo) / 100, Decimal(hi) / 100], ("domain", "=", number(lo), ":",
                                                        number(hi))

    def element(kind: str) -> tuple[object, str]:
        if kind == "point":
            p, at = point()
            return p, line("\\draw", "plot", "[", "mark", "=", "*", "]", "coordinates", "{",
                           *at, "}", ";")
        if kind in ("segment", "rectangle", "triangle"):
            points = [point() for _ in range(3 if kind == "triangle" else 2)]
            shape = {"segment": Segment, "rectangle": Rectangle, "triangle": Triangle}[kind]
            joint = "rectangle" if kind == "rectangle" else "--"
            tokens = [t for i, (_, at) in enumerate(points) for t in (joint,) * (i > 0) + at]
            tail = ("--", "cycle") if kind == "triangle" else ()
            return shape(*(p for p, _ in points)), line("\\draw", *tokens, *tail, ";")
        if kind in ("circle", "ellipse"):
            center, at = point()
            r = hundredths(positive=True)
            if kind == "circle":
                return Circle(center, Decimal(r) / 100), line("\\draw", *at, "circle", "(",
                                                               digits(r), ")", ";")
            s = hundredths(positive=True)
            return (Curve("ellipse", (center.x, center.y, Decimal(r) / 100, Decimal(s) / 100)),
                    line("\\draw", *at, "ellipse", "(", digits(r), "and", digits(s), ")", ";"))
        bounds, options = domain()
        if kind == "hyperbola":
            cx, a = hundredths(), hundredths(positive=True)
            cy, b = hundredths(), hundredths(positive=True)
            params = [Decimal(v) / 100 for v in (cx, cy, a, b)] + bounds
            return Curve("hyperbola", tuple(params)), line(
                "\\draw", "plot", "[", *options, ",", "variable", "=", "\\t", "]", "(",
                "{", *signed(cx, True), "+", digits(a), "*cosh(\\t)", "}", ",",
                "{", *signed(cy, True), "+", digits(b), "*sinh(\\t)", "}", ")", ";")
        suffixes = ("*\\x*\\x", "*\\x", "") if kind == "parabola" else ("*\\x", "")
        coefs = [hundredths() for _ in suffixes]
        body = [token for i, (h, suffix) in enumerate(zip(coefs, suffixes))
                for token in (*signed(h, i == 0), suffix) if token]
        params = [Decimal(h) / 100 for h in coefs] + bounds
        return Curve(kind, tuple(params)), line(
            "\\draw", "plot", "[", *options, "]", "(", "\\x", ",", "{", *body, "}", ")", ";")

    elements, lines = [], []
    for kind in draw(st.lists(st.sampled_from(ALL_KINDS), max_size=4)):
        try:
            el, text = element(kind)
        except ValueError:  # equal endpoints or corners, or a collinear triangle
            assume(False)
        elements.append(el)
        lines.append(text)
    end = "\n" if lines and draw(st.booleans()) else ""
    return "\n".join(lines) + end, GeomScene(tuple(elements))


@given(_subset_tikz_texts())
@settings(max_examples=200, deadline=None)
def test_every_text_of_the_documented_tikz_subset_reads_as_its_scene(case):
    text, scene = case
    assert parse_tikz_subset(text) == scene


# edits in the characters of numbers and whitespace, which leave a quarter of the texts
# readable, where edits in any character leave one in ten
_NUMBER_EDITS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 10**6),
              st.sampled_from(" \t0123456789-.")),
    min_size=1, max_size=4,
)


@given(_subset_tikz_texts(), _NUMBER_EDITS | _EDITS)
@settings(max_examples=200, deadline=None)
def test_an_accepted_mutated_tikz_text_reads_back_from_its_emission(case, edits):
    text = _mutate(case[0], edits)
    try:
        scene = parse_tikz_subset(text)
    except TikzParseError:
        return
    assert parse_tikz_subset(emit_tikz(scene)) == scene


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
        return emit_tikz(gen_scene(seed))
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
