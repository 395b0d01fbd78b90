"""Chart parsing, AP scoring and synthesis."""

import ast
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ocrkit.charts import (
    AP_TOLERANCES,
    AP_VALUE_FLOOR,
    ApReport,
    ChartGenConfig,
    ChartParseError,
    ChartStruct,
    Series,
    ap_report,
    chart_ap,
    format_number,
    gen_chart_struct,
    parse_chart_output,
    serialize_chart_struct,
)


def _struct(points, name="s", **meta):
    return ChartStruct(series=(Series(name, tuple(points)),), **meta)


# --- parsing -----------------------------------------------------------------


def test_parse_dict_minimal():
    struct = parse_chart_output('{"title": "T", "values": {"s": {"a": 1}}}')
    assert struct.title == "T"
    assert struct.series == (Series("s", (("a", 1.0),)),)


def test_parse_dict_empty_values():
    struct = parse_chart_output('{"values": {}}')
    assert struct.series == ()
    assert struct.title is None


def test_parse_dict_single_quotes_and_trailing_commas():
    struct = parse_chart_output("{'title': 'T', 'values': {'s': {'a': 1, 'b': -2.5,},},}")
    assert struct.series[0].points == (("a", 1.0), ("b", -2.5))


def test_parse_dict_scientific_notation():
    struct = parse_chart_output('{"values": {"s": {"a": 1.5e3, "b": -2E-2}}}')
    assert struct.series[0].points == (("a", 1500.0), ("b", -0.02))


def test_parse_dict_unbalanced_brace():
    with pytest.raises(ChartParseError):
        parse_chart_output('{"values": {"s": {"a": 1}}')


def test_parse_dict_unterminated_string():
    with pytest.raises(ChartParseError, match="unterminated"):
        parse_chart_output('{"values": {"s')
    # a quote swallowing the next token surfaces as a structural error instead
    with pytest.raises(ChartParseError):
        parse_chart_output('{"values": {"s: {"a": 1}}}')


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("{", 1, 2),
        ('{"values": {', 1, 13),
        ('{"title": ', 1, 11),
        ('{\n"values": {"s": {"x": 1,\n', 3, 1),
    ],
)
def test_parse_dict_text_ending_where_a_string_is_due(text, line, column):
    # reported one past the end of the text, not past that
    with pytest.raises(ChartParseError) as exc:
        parse_chart_output(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert exc.value.message == "expected a quoted string"


@pytest.mark.parametrize(
    "text, where",
    [
        ('{\n  "values": {\n    "s": {"a": x}}}', "3:16: expected a number"),
        ('{"values": {"s" {}}}', "1:17: expected ':'"),
        # CR is chart whitespace, and a line ends only at LF
        ('{\r\n"title": "a"\r\n"values": {}}', "3:1: expected ',' or '}'"),
        ('{"values": {"s\\q": {}}}', "1:15: unsupported escape \\q"),
        # a backslash that ends the text leaves the string open
        ('{"values": {"s\\', "1:16: unterminated string"),
        ('{"values": {}} x', "1:16: unexpected text after the closing '}'"),
        ('{"title": "t"}', "1:1: missing 'values' map"),
    ],
    ids=["number-on-line-3", "missing-colon", "crlf", "escape", "trailing-backslash",
         "after-the-map", "no-values"],
)
def test_parse_dict_error_position_and_message(text, where):
    with pytest.raises(ChartParseError) as exc:
        parse_chart_output(text)
    assert str(exc.value) == where
    assert f"{exc.value.line}:{exc.value.column}: {exc.value.message}" == where
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"values": {"s": {"a": 01}}}', "1:24: leading zero in the integer 01"),
        ('{"values": {"s": {"a": 1,\n  "b": -007}}}', "2:8: leading zero in the integer -007"),
        ('{"values": {"s": {"a": 0010}}}', "1:24: leading zero in the integer 0010"),
        ('{"values": {"a\nb": {}}}', "1:15: line break in a string"),
        ("{'title': 'a\rb', 'values': {}}", "1:13: line break in a string"),
        ('{"values": {"s": {"x\\n\r\ny": 1}}}', "1:23: line break in a string"),
        # re's \d matches every Unicode decimal digit; Python's numbers take ASCII digits only
        ('{"values": {"s": {"a": \u0663, "b": \uff11\uff12}}}', "1:24: expected a number"),
        ('{"values": {"s": {"a": \uff11\uff12}}}', "1:24: expected a number"),
        ('{"values": {"s": {"a": 1\u0663}}}', "1:25: expected ',' or '}'"),
        ('{"values": {"s": {"a": 1e\u0663}}}', "1:25: expected ',' or '}'"),
    ],
    ids=["leading-zero", "negative-leading-zeros", "leading-zeros", "lf-in-string",
         "cr-in-string", "crlf-after-an-escape", "arabic-indic-digit", "full-width-digits",
         "digit-after-a-digit", "exponent-digit"],
)
def test_parse_dict_refuses_what_python_literals_refuse(text, where):
    # the dict form is a subset of Python's literals, so ast.literal_eval refuses these too
    with pytest.raises(SyntaxError):
        ast.literal_eval(text)
    with pytest.raises(ChartParseError) as exc:
        parse_chart_output(text)
    assert str(exc.value) == where


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"values": {"a\x00b": {}}}', "1:15: NUL in a string"),
        ("{'title': '\x00', 'values': {}}", "1:12: NUL in a string"),
        ('{"values": {"s": {"x\\t\x00": 1}}}', "1:23: NUL in a string"),
    ],
    ids=["series-name", "title", "after-an-escape"],
)
def test_parse_dict_refuses_a_nul_in_a_string(text, where):
    # compile() refuses any NUL: a ValueError before Python 3.12, a SyntaxError since
    with pytest.raises((SyntaxError, ValueError), match="null bytes"):
        ast.literal_eval(text)
    with pytest.raises(ChartParseError) as exc:
        parse_chart_output(text)
    assert str(exc.value) == where


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"values": {"\ud800": {}}}', "1:14: lone surrogate U+D800 in a string"),
        ("{'title': 'a\udfff', 'values': {}}", "1:13: lone surrogate U+DFFF in a string"),
        ('{"values": {"s": {"x\\t\udc00": 1}}}', "1:23: lone surrogate U+DC00 in a string"),
    ],
    ids=["series-name", "title", "after-an-escape"],
)
def test_parse_dict_refuses_a_lone_surrogate_in_a_string(text, where):
    # UTF-8 cannot encode a lone surrogate, so compile() cannot read the text
    with pytest.raises(UnicodeEncodeError, match="surrogates not allowed"):
        ast.literal_eval(text)
    with pytest.raises(ChartParseError) as exc:
        parse_chart_output(text)
    assert str(exc.value) == where


@pytest.mark.parametrize(
    "cell", ["\u0663", "\uff11\uff12", "1\u0663", "\u0661.5"],
    ids=["arabic-indic", "full-width", "mixed", "fraction"],
)
def test_parse_table_reads_ascii_digits_only(cell):
    text = f"| label | s |\n| --- | --- |\n| a | {cell} |\n"
    with pytest.raises(ChartParseError) as exc:
        parse_chart_output(text)
    assert str(exc.value) == f"3:1: non-numeric value cell {cell!r}"


def test_serialize_dict_refuses_a_nul_the_table_form_holds_it():
    for struct, shown in [
        (ChartStruct(series=(Series("a\x00b", (("x", 1.0),)),)), "'a\\x00b'"),
        (ChartStruct(series=(Series("s", (("\x00", 1.0),)),)), "'\\x00'"),
        (_struct([("x", 1.0)], source="n\x00"), "'n\\x00'"),
    ]:
        with pytest.raises(ValueError) as exc:
            serialize_chart_struct(struct, "dict")
        assert str(exc.value) == f"dict form cannot hold {shown}"
        assert parse_chart_output(serialize_chart_struct(struct, "table")) == struct


def test_serialize_dict_refuses_a_lone_surrogate():
    for struct, shown in [
        (ChartStruct(series=(Series("a\ud800", (("x", 1.0),)),)), "'a\\ud800'"),
        (ChartStruct(series=(Series("s", (("\udfff", 1.0),)),)), "'\\udfff'"),
        (_struct([("x", 1.0)], title="\udc00n"), "'\\udc00n'"),
    ]:
        with pytest.raises(ValueError) as exc:
            serialize_chart_struct(struct, "dict")
        assert str(exc.value) == f"dict form cannot hold {shown}"


def test_serialize_table_refuses_a_lone_surrogate():
    for struct, shown in [
        (ChartStruct(series=(Series("a\ud800", (("x", 1.0),)),)), "'a\\ud800'"),
        (ChartStruct(series=(Series("s", (("\udfff", 1.0),)),)), "'\\udfff'"),
        (_struct([("x", 1.0)], title="\udc00n"), "title='\\udc00n'"),
    ]:
        with pytest.raises(ValueError) as exc:
            serialize_chart_struct(struct, "table")
        assert str(exc.value) == f"table form cannot hold {shown}"


@pytest.mark.parametrize(
    "number", ["0", "00", "-00", "0.5", "00.5", "01.5", "01e2", "0e0", "10", "-1.", ".5", "-0"]
)
def test_parse_dict_reads_the_numbers_python_reads(number):
    # -0 is the one difference in value: it reads as -0.0, which == 0, where Python reads 0
    struct = parse_chart_output(f'{{"values": {{"s": {{"a": {number}}}}}}}')
    assert struct.series[0].points == (("a", float(ast.literal_eval(number))),)


def test_serialize_dict_escapes_line_breaks():
    struct = ChartStruct(series=(Series("a\r\nb", (("x\ny", 1.0),)),), title="t\rt")
    text = serialize_chart_struct(struct, "dict")
    assert "\r" not in text and "\n" not in text
    assert parse_chart_output(text) == struct
    assert ast.literal_eval(text) == {"title": "t\rt", "values": {"a\r\nb": {"x\ny": 1.0}}}


_NOT_FINITE = "series 's': value for 'b' not finite"


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"values": {"s": {"a": 1, "b": 1e999}}}', f"1:32: {_NOT_FINITE}"),
        ('{"values": {"s": {"a": 1,\n  "b":  -1e999}}}', f"2:9: {_NOT_FINITE}"),
        ("| label | s |\n| --- | --- |\n| a | 1 |\n| b | 1e999 |\n", f"4:1: {_NOT_FINITE}"),
        ("title: t\n| label | u | s |\n| a | 1 | 2 |\n| b | 3 | -1E400 |\n",
         f"4:1: {_NOT_FINITE}"),
    ],
    ids=["dict", "dict-line-2", "table", "table-second-series"],
)
def test_parse_non_finite_value_reported_where_it_stands(text, where):
    # at the number in the dict form, at its row (column 1) in the table form
    with pytest.raises(ChartParseError) as exc:
        parse_chart_output(text)
    assert str(exc.value) == where


def test_parse_dict_escapes():
    struct = parse_chart_output(r'{"values": {"a\"b\\c\n\t\r\'": {}}}')
    assert struct.series[0].name == 'a"b\\c\n\t\r\''


def test_parse_dict_non_numeric_value():
    with pytest.raises(ChartParseError, match="number"):
        parse_chart_output('{"values": {"s": {"a": "one"}}}')


def test_parse_dict_duplicate_series_reports_position():
    with pytest.raises(ChartParseError, match="duplicate series") as exc:
        parse_chart_output('{"values": {"s": {"a": 1}, "s": {"b": 2}}}')
    assert exc.value.line == 1
    assert exc.value.column > 1


def test_parse_dict_duplicate_label():
    with pytest.raises(ChartParseError, match="duplicate label"):
        parse_chart_output('{"values": {"s": {"a": 1, "a": 2}}}')


def test_parse_dict_duplicate_top_level_key_reported_before_colon():
    with pytest.raises(ChartParseError) as exc:
        parse_chart_output('{"title": "a", "title": "b", "values": {}}')
    assert str(exc.value) == "1:16: duplicate key 'title'"


def test_parse_dict_unknown_key():
    with pytest.raises(ChartParseError, match="unknown key"):
        parse_chart_output('{"subtitle": "x", "values": {}}')


def test_parse_table_header_and_row():
    struct = parse_chart_output("| label | s1 | s2 |\n| a | 1 | 2 |\n")
    assert [s.name for s in struct.series] == ["s1", "s2"]
    assert struct.series[0].points == (("a", 1.0),)
    assert struct.series[1].points == (("a", 2.0),)
    # as in markdown, "||" opens a row with an empty cell, here the label column's header
    assert parse_chart_output("|| s |\n|---|---|\n| a | 1 |\n") == ChartStruct(
        (Series("s", (("a", 1.0),)),)
    )


def test_parse_table_with_metadata_and_separator():
    text = (
        "title: Sales\nsource: Survey\nx-title: Month\ny_title: Units\n"
        "| label | north |\n| --- | --- |\n| jan | 10 |\n| feb | 20.5 |\n"
    )
    struct = parse_chart_output(text)
    assert struct.title == "Sales" and struct.source == "Survey"
    assert struct.x_title == "Month" and struct.y_title == "Units"
    assert struct.series[0].points == (("jan", 10.0), ("feb", 20.5))


def test_parse_table_bad_cell_reports_line():
    with pytest.raises(ChartParseError, match="non-numeric") as exc:
        parse_chart_output("| label | s |\n| a | 1 |\n| b | oops |\n")
    assert exc.value.line == 3


def test_parse_table_arity_mismatch():
    with pytest.raises(ChartParseError, match="cells"):
        parse_chart_output("| label | s1 | s2 |\n| a | 1 |\n")


@pytest.mark.parametrize(
    "text, where",
    [
        ("title: a\nTitle: b\n| label | s |\n| a | 1 |\n", "2:1: duplicate metadata key 'title'"),
        ("\n| label |\n| a |\n", "2:1: table header needs a label column and series"),
        ("title: t\nnote\n| label | s |\n", "2:1: expected metadata or a table row, got 'note'"),
        ("title: t\n", "2:1: no table found"),
        ("| label | s | s |\n| a | 1 | 2 |\n", "1:1: duplicate series name in header"),
        ("| label | s |\n| a | 1 |\nfooter\n", "3:1: unexpected text after the table: 'footer'"),
        ("| label | s |\n| a | 1 |\n| a | 2 |\n", "3:1: duplicate label 'a'"),
        # a pipe at each edge: the "||" ends an empty third cell
        ("| label | s |\n| a | 1 ||\n", "2:1: row has 3 cells, header has 2"),
        # UTF-8 cannot encode a lone surrogate, so no record file holds one
        ("| label | s\ud800 |\n| --- | --- |\n| a\udfff | 1 |\n", "1:1: lone surrogate U+D800"),
        ("| label | s |\n| --- | --- |\n| a\udfff | 1 |\n", "3:1: lone surrogate U+DFFF"),
        ("title: t\udc00\n| label | s |\n| a | 1 |\n", "1:1: lone surrogate U+DC00"),
    ],
    ids=["metadata-key", "no-series", "not-metadata", "no-table", "series-name",
         "after-the-table", "label", "empty-edge-cell", "surrogate-series-name",
         "surrogate-label", "surrogate-metadata"],
)
def test_parse_table_error_position_and_message(text, where):
    # the table reader rejects a repeat itself, at its row, before Series or ChartStruct sees it
    with pytest.raises(ChartParseError) as exc:
        parse_chart_output(text)
    assert str(exc.value) == where


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Series("s", (("a", 1.0), ("a", 2.0))), "series 's': duplicate label 'a'"),
        (lambda: Series("s", (("a", math.inf),)), "series 's': value for 'a' not finite"),
        (lambda: Series(" a", ()), "series ' a': name has edge whitespace"),
        (lambda: Series("s", (("x\t", 1.0),)), "series 's': label 'x\\t' has edge whitespace"),
        (lambda: ChartStruct((Series("s", ()), Series("s", ()))), "duplicate series name 's'"),
        (lambda: serialize_chart_struct(ChartStruct(), "csv"), "unknown form 'csv'"),
        (lambda: serialize_chart_struct(_struct([("a|b", 1.0)]), "table"),
         "table form cannot hold 'a|b'"),
        (lambda: chart_ap([], -0.1), "tolerance must be >= 0"),
        (lambda: ChartGenConfig(decimals=-1), "decimals must be >= 0"),
        (lambda: ChartGenConfig(value_range=(-1.7e308, 1.7e308)),
         "value_range width must be finite, got (-1.7e+308, 1.7e+308)"),
    ],
    ids=["series-label", "series-value", "series-name-edge", "series-label-edge", "chart-series",
         "form", "table-cell", "tolerance", "decimals", "value-width"],
)
def test_values_built_outside_the_readers_are_checked(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_round_trip_both_forms():
    random.seed(0)
    for seed in range(60):
        struct, _ = gen_chart_struct(seed)
        for form in ("dict", "table"):
            assert parse_chart_output(serialize_chart_struct(struct, form)) == struct


_CHART_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",)) | st.sampled_from(" \t\n|:'\"\\"), max_size=6
)


def _quoted(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


@st.composite
def _chart_texts(draw):
    # dict-form text of a chart with shared labels, so the table form can apply; written
    # out here, not through Series, so the reader's stripping and strip collisions show
    labels = draw(st.lists(_CHART_TEXT, max_size=4, unique=True))
    names = draw(st.lists(_CHART_TEXT, max_size=3, unique=True))
    values = st.floats(allow_nan=False, allow_infinity=False)
    series = ", ".join(
        _quoted(n) + ": {"
        + ", ".join(f"{_quoted(label)}: {format_number(draw(values))}" for label in labels)
        + "}"
        for n in names
    )
    meta = {k: draw(st.none() | _CHART_TEXT) for k in ("title", "source", "x_title", "y_title")}
    fields = [f"{_quoted(k)}: {_quoted(v)}" for k, v in meta.items() if v is not None]
    return "{" + ", ".join(fields + [f'"values": {{{series}}}']) + "}"


@given(_chart_texts(), st.sampled_from(["dict", "table"]))
@settings(max_examples=300, deadline=None)
def test_round_trip_property_parse_serialize_parse(text, form):
    try:
        struct = parse_chart_output(text)
    except ChartParseError:
        return  # names or labels that collide once stripped
    try:
        out = serialize_chart_struct(struct, form)
    except ValueError:
        assert form == "table"  # the dict form holds every chart
        return
    assert parse_chart_output(out) == struct


@st.composite
def _chart_structs(draw):
    # any chart the constructors accept, labels shared so the table form can apply;
    # half the names are drawn raw, so edge whitespace reaches Series
    text = _CHART_TEXT.map(str.strip) | _CHART_TEXT
    labels = draw(st.lists(text, max_size=4, unique=True))
    names = draw(st.lists(text, max_size=3, unique=True))
    values = st.floats(allow_nan=False, allow_infinity=False)
    meta = {k: draw(st.none() | _CHART_TEXT) for k in ("title", "source", "x_title", "y_title")}
    try:
        series = tuple(Series(n, tuple((label, draw(values)) for label in labels)) for n in names)
    except ValueError:
        assume(False)
    return ChartStruct(series, **meta)


@given(_chart_structs(), st.sampled_from(["dict", "table"]))
@settings(max_examples=300, deadline=None)
def test_every_accepted_struct_round_trips(struct, form):
    try:
        text = serialize_chart_struct(struct, form)
    except ValueError:
        # the dict form holds every chart whose strings hold no NUL
        strings = [struct.title, struct.source, struct.x_title, struct.y_title,
                   *(s.name for s in struct.series),
                   *(label for s in struct.series for label, _ in s.points)]
        assert form == "table" or any("\0" in text for text in strings if text)
        return
    assert parse_chart_output(text) == struct


def test_serialize_table_rejects_edge_whitespace_metadata():
    struct = _struct([("a", 1.0)], title="region ")
    assert parse_chart_output(serialize_chart_struct(struct, "dict")) == struct
    for value in ("region ", "\tregion", " "):
        with pytest.raises(ValueError, match="title"):
            serialize_chart_struct(_struct([("a", 1.0)], title=value), "table")


def test_serialize_table_rejects_no_series():
    with pytest.raises(ValueError, match="at least one series"):
        serialize_chart_struct(ChartStruct(title="t"), "table")


def test_serialize_table_requires_uniform_labels():
    struct = ChartStruct(
        series=(Series("a", (("x", 1.0),)), Series("b", (("y", 2.0),)))
    )
    with pytest.raises(ValueError, match="identical labels"):
        serialize_chart_struct(struct, "table")
    # dict form handles ragged series fine
    assert parse_chart_output(serialize_chart_struct(struct, "dict")) == struct


# --- AP scoring -----------------------------------------------------------------


def test_chart_ap_identical_all_tolerances():
    struct, _ = gen_chart_struct(5)
    for tolerance in (0.0, 0.05, 0.5):
        assert chart_ap([(struct, struct)], tolerance) == 1.0


def test_chart_ap_relative_tolerance_example():
    gt = _struct([("a", 100.0)])
    pred = _struct([("a", 104.0)])
    assert chart_ap([(gt, pred)], 0.05) == 1.0  # |104-100| = 4 <= 5
    assert chart_ap([(gt, pred)], 0.0) == 0.0


def test_chart_ap_denominator_penalizes_both_sides():
    gt = _struct([("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)])
    pred = _struct([("a", 1.0), ("b", 2.0)])
    assert chart_ap([(gt, pred)], 0.0) == 0.5  # 2 / max(2, 4)
    assert chart_ap([(pred, gt)], 0.0) == 0.5


def test_chart_ap_empty_samples():
    empty = ChartStruct()
    assert chart_ap([(empty, empty)], 0.0) == 1.0
    gt = _struct([("a", 1.0)])
    assert chart_ap([(gt, empty)], 0.0) == 0.0


def test_chart_ap_label_must_match_exactly():
    gt = _struct([("a", 1.0)])
    assert chart_ap([(gt, _struct([("A", 1.0)]))], 0.0) == 0.0
    assert chart_ap([(gt, ChartStruct(series=(Series("other", (("a", 1.0),)),)))], 0.0) == 0.0


def test_ap_report_of_no_pairs_is_zero():
    assert ap_report(iter(())) == ApReport(0.0, 0.0, 0.0, 0)


def test_ap_report_takes_one_pair_at_a_time():
    # one pass: each pair is scored before the next one is read
    events = []

    class Chart:  # a chart that logs when it is scored
        def __init__(self, name):
            self.name = name

        def items(self):
            events.append(f"scored {self.name}")
            return [("s", "a", 1.0)]

    def pairs():
        for i in range(3):
            events.append(f"read {i}")
            yield Chart(f"gt{i}"), Chart(f"pred{i}")

    assert ap_report(pairs()) == ApReport(1.0, 1.0, 1.0, 3)
    assert events == [
        event for i in range(3) for event in (f"read {i}", f"scored gt{i}", f"scored pred{i}")
    ]


def test_ap_report_identity_and_ordering():
    structs = [gen_chart_struct(seed)[0] for seed in range(5)]
    report = ap_report(zip(structs, structs))
    assert (report.ap_strict, report.ap_slight, report.ap_high) == (1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ApReport(0.9, 0.5, 1.0, 1)


def test_ap_report_all_empty_predictions():
    gts = [gen_chart_struct(seed)[0] for seed in range(3)]
    preds = [ChartStruct() for _ in gts]
    report = ap_report(zip(gts, preds))
    assert (report.ap_strict, report.ap_slight, report.ap_high) == (0.0, 0.0, 0.0)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_chart_ap_monotone_in_tolerance(gt_seed, noise_seed):
    gt, _ = gen_chart_struct(gt_seed)
    rng = random.Random(noise_seed)
    pred = ChartStruct(
        series=tuple(
            Series(
                s.name,
                tuple((label, value * (1 + rng.uniform(-0.2, 0.2))) for label, value in s.points),
            )
            for s in gt.series
        ),
        title=gt.title,
    )
    last = 0.0
    for tolerance in (0.0, 0.03, 0.05, 0.1, 0.3):
        score = chart_ap([(gt, pred)], tolerance)
        assert 0.0 <= score <= 1.0
        assert score >= last
        last = score


def test_chart_ap_sample_permutation_symmetric():
    pairs = [(gen_chart_struct(s + 100)[0], gen_chart_struct(s)[0]) for s in range(6)]
    base = chart_ap(pairs, 0.05)
    order = [3, 0, 5, 1, 4, 2]
    assert chart_ap([pairs[i] for i in order], 0.05) == pytest.approx(base, abs=1e-12)


def _brute_force_ap(pairs, tolerance):
    """chart_ap's definition, comparing every predicted triple with every true one."""
    if not pairs:
        return 0.0
    total = 0.0
    for gt, pred in pairs:
        pred_items, gt_items = pred.items(), gt.items()
        if not pred_items and not gt_items:
            total += 1.0
            continue
        matches = sum(
            any(
                (name, label) == (gt_name, gt_label)
                and abs(value - gt_value) <= tolerance * max(abs(gt_value), AP_VALUE_FLOOR)
                for gt_name, gt_label, gt_value in gt_items
            )
            for name, label, value in pred_items
        )
        total += matches / max(len(pred_items), len(gt_items))
    return total / len(pairs)


# Few keys and a few values near each other, so matches and near misses are common.
_AP_KEY = st.sampled_from(("a", "b", "c"))
_AP_VALUE = st.sampled_from((0.0, 1e-10, 1.0, -1.0, 95.0, 100.0, 104.0, 105.0, 110.0))
_AP_CHART = st.dictionaries(_AP_KEY, st.dictionaries(_AP_KEY, _AP_VALUE), max_size=3).map(
    lambda series: ChartStruct(
        tuple(Series(name, tuple(points.items())) for name, points in series.items())
    )
)


@given(
    st.lists(st.tuples(_AP_CHART, _AP_CHART), max_size=4),
    st.sampled_from(tuple(AP_TOLERANCES.values())),
)
@settings(max_examples=300, deadline=None)
def test_chart_ap_equals_brute_force_count(pairs, tolerance):
    assert chart_ap(pairs, tolerance) == _brute_force_ap(pairs, tolerance)


def _perturbed(rng, struct):
    """struct with some values moved by up to 12%, some points dropped and maybe a series
    renamed, so that pairs match at some tolerances and not at others."""
    series = []
    for s in struct.series:
        points = tuple((label, value * (1 + rng.uniform(-0.12, 0.12)) if rng.random() < 0.6
                        else value)
                       for label, value in s.points if rng.random() < 0.85)
        series.append(Series(s.name + " x" if rng.random() < 0.1 else s.name, points))
    return ChartStruct(tuple(series), title=struct.title)


@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 5)),
                max_size=8))
@settings(max_examples=150, deadline=None)
def test_ap_report_over_one_shot_generators_equals_chart_ap(draws):
    pairs = []
    for gt_seed, noise_seed, kind in draws:
        gt = gen_chart_struct(gt_seed)[0]
        pred = _perturbed(random.Random(noise_seed), gt)
        # kind 0: an empty chart on both sides; 1: an empty prediction; 2: an empty truth;
        # 3-5: both as drawn
        gt = ChartStruct() if kind in (0, 2) else gt
        pred = ChartStruct() if kind in (0, 1) else pred
        pairs.append((gt, pred))
    report = ap_report(pair for pair in pairs)
    expected = [chart_ap(pairs, tolerance) for tolerance in AP_TOLERANCES.values()]
    assert report == ApReport(*expected, n_samples=len(pairs))


# --- generator --------------------------------------------------------------------


def test_gen_deterministic():
    assert gen_chart_struct(12) == gen_chart_struct(12)
    assert gen_chart_struct(12) != gen_chart_struct(13)


def test_gen_respects_bounds_and_decimals():
    config = ChartGenConfig(value_range=(0.0, 1.0), decimals=3)
    for seed in range(50):
        struct, _ = gen_chart_struct(seed, config)
        for _, _, value in struct.items():
            assert 0.0 <= value <= 1.0
            assert round(value, 3) == value


def test_gen_uses_text_pool():
    config = ChartGenConfig(text_pool=("solo",))
    struct, _ = gen_chart_struct(3, config)
    assert struct.title == "solo"
    assert all(s.name.split(" ")[0] == "solo" for s in struct.series)


def test_gen_config_validation():
    with pytest.raises(ValueError):
        ChartGenConfig(text_pool=())
    with pytest.raises(ValueError):
        ChartGenConfig(value_range=(5.0, 1.0))
    with pytest.raises(ValueError):
        ChartGenConfig(text_pool=("bad|pipe",))
    with pytest.raises(ValueError):
        ChartGenConfig(text_pool=("padded ",))


@pytest.mark.parametrize(
    "bounds", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)]
)
def test_gen_config_rejects_non_finite_value_range(bounds):
    with pytest.raises(ValueError, match="value_range bounds must be finite"):
        ChartGenConfig(value_range=bounds)


def test_render_spec_format():
    struct, spec = gen_chart_struct(8)
    lines = spec.splitlines()
    assert lines[0] == "chartspec v1"
    assert lines[1].startswith("kind: ")
    assert any(line.startswith("labels: ") for line in lines)
    assert sum(line.startswith("series: ") for line in lines) == len(struct.series)
