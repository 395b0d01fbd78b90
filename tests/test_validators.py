"""Format validator behaviour, stability and cross-engine consistency."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ocrkit.charts import gen_chart_struct, serialize_chart_struct
from ocrkit.geometry import emit_tikz, gen_scene
from ocrkit.validators import (
    VALIDATORS,
    Issue,
    ValidationReport,
    validate_kern,
    validate_mathpix_markdown,
    validate_smiles,
    validate_tikz,
)


def codes(report):
    return [issue.code for issue in report.issues]


def test_report_ok_is_read_from_its_issues():
    issue = Issue(1, 1, "E", "m")
    assert ValidationReport(()).ok
    assert not ValidationReport([issue]).ok
    # ok is no field: a report cannot claim ok while it holds an issue
    assert ValidationReport([issue]).as_dict() == {"issues": (issue,)}


# --- markdown -----------------------------------------------------------------


def test_markdown_balanced_inline_math_ok():
    assert validate_mathpix_markdown("x = \\(a+b\\)").ok


def test_markdown_unbalanced_math():
    assert codes(validate_mathpix_markdown("x = \\(a+b")) == ["MATH_UNBALANCED"]
    assert codes(validate_mathpix_markdown("a+b\\]")) == ["MATH_UNBALANCED"]
    assert codes(validate_mathpix_markdown("price is $5")) == ["MATH_UNBALANCED"]
    assert validate_mathpix_markdown("$a$ and $$b$$").ok


def test_markdown_environment_pairing():
    assert validate_mathpix_markdown("\\begin{array}x\\end{array}").ok
    report = validate_mathpix_markdown("\\begin{array} x")
    assert codes(report) == ["ENV_UNCLOSED"]
    assert codes(validate_mathpix_markdown("\\begin{a}\\end{b}")) == ["ENV_MISMATCH"]
    assert codes(validate_mathpix_markdown("\\end{array}")) == ["ENV_UNOPENED"]


def test_markdown_table_arity():
    report = validate_mathpix_markdown("| a | b | c |\n| 1 | 2 | 3 |\n| 4 | 5 |\n")
    assert codes(report) == ["TABLE_ARITY"]
    assert report.issues[0].line == 3


def test_markdown_code_fence():
    assert codes(validate_mathpix_markdown("```\ncode\n")) == ["FENCE_UNCLOSED"]
    assert validate_mathpix_markdown("```\n$ not math \\( \n```\n").ok


def test_markdown_separate_tables_reset_arity():
    text = "| a | b |\n| 1 | 2 |\n\ntext\n\n| x | y | z |\n| 1 | 2 | 3 |\n"
    assert validate_mathpix_markdown(text).ok


# --- smiles --------------------------------------------------------------------


def test_smiles_ring_ok():
    assert validate_smiles("C1CCCCC1").ok


def test_smiles_ring_unpaired():
    assert codes(validate_smiles("C1CC")) == ["RING_UNPAIRED"]
    assert codes(validate_smiles("C1CC1C1")) == ["RING_UNPAIRED"]


def test_smiles_paren_unbalanced():
    assert codes(validate_smiles("C(C(C)")) == ["PAREN_UNBALANCED"]
    assert codes(validate_smiles("CC)C")) == ["PAREN_UNBALANCED"]


def test_smiles_brackets():
    assert validate_smiles("[13CH4]").ok
    assert validate_smiles("C[C@@H](N)C(=O)O").ok
    assert validate_smiles("[O-][N+](=O)C").ok
    assert validate_smiles("[Qq]C").ok  # any Xx symbol passes: syntax only
    assert codes(validate_smiles("[@]C")) == ["BRACKET_MALFORMED"]
    assert codes(validate_smiles("[C@@@H]")) == ["BRACKET_MALFORMED"]
    assert codes(validate_smiles("C[NH2")) == ["BRACKET_UNCLOSED"]


def test_smiles_bonds_and_aromatics():
    assert validate_smiles("c1ccccc1-C=C#N").ok
    assert validate_smiles("C/C=C\\C").ok
    assert validate_smiles("CCl.Br%12CC%12").ok


def test_smiles_illegal_atom():
    report = validate_smiles("CEC")
    assert codes(report) == ["ATOM_ILLEGAL"]
    assert report.issues[0].column == 2


def test_smiles_multiline():
    assert "MULTILINE" in codes(validate_smiles("CC\nCC"))


# --- kern ----------------------------------------------------------------------


def test_kern_minimal_ok():
    assert validate_kern("**kern\n4c\n*-").ok


def test_kern_missing_terminator():
    assert codes(validate_kern("**kern\n4c")) == ["SPINE_UNTERMINATED"]


def test_kern_arity_mismatch_line():
    report = validate_kern("**kern\t**kern\n4c\n*-\t*-")
    assert codes(report) == ["SPINE_ARITY"]
    assert report.issues[0].line == 2


def test_kern_declaration_required():
    assert codes(validate_kern("4c\n*-")) == ["SPINE_DECL"]
    assert codes(validate_kern("")) == ["EMPTY_INPUT"]


def test_kern_two_spines_with_comments_and_barlines():
    text = (
        "!! global comment\n"
        "**kern\t**kern\n"
        "*clefF4\t*clefG2\n"
        "! local\t! comment\n"
        "=1\t=1\n"
        "4c 4e\t8ccLL\n"
        ".\t8ddJJ\n"
        "=2\t=2\n"
        "*-\t*-\n"
    )
    report = validate_kern(text)
    assert report.ok, report.issues


def test_kern_token_malformed():
    report = validate_kern("**kern\n4h\n*-")
    assert codes(report) == ["TOKEN_MALFORMED"]
    report = validate_kern("**kern\nxyz\n*-")
    assert codes(report) == ["TOKEN_MALFORMED"]


def test_kern_spine_split_unsupported():
    report = validate_kern("**kern\n*^\n4c\t4d\n*v\t*v\n*-")
    assert "UNSUPPORTED" in codes(report)


def test_kern_barline_mixed():
    report = validate_kern("**kern\t**kern\n=1\t4c\n*-\t*-")
    assert codes(report) == ["BARLINE_MIXED"]


def test_kern_content_after_terminator():
    report = validate_kern("**kern\n4c\n*-\n4d")
    assert codes(report) == ["SPINE_TERMINATED"]


# --- tikz ------------------------------------------------------------------------


def test_tikz_validator_accepts_engine_output():
    for seed in range(30):
        assert validate_tikz(emit_tikz(gen_scene(seed))).ok


def test_tikz_validator_rejects_a_zero_length_segment():
    report = validate_tikz("\\draw (0,0) -- (0,0);\n")
    assert [(i.line, i.column, i.code, i.message) for i in report.issues] == [
        (1, 21, "TIKZ_SYNTAX", "segment endpoints must differ")
    ]


def test_tikz_validator_rejects_junk():
    report = validate_tikz("\\drow (0,0) circle (1);\n")
    assert codes(report) == ["TIKZ_SYNTAX"]
    assert report.issues[0].line == 1


# --- exact issue lists --------------------------------------------------------------

_MD_MULTI = "\\end{x} \\)\r\n| a | b |\r\n| 1 |\r\n\\begin{y} $ \\[\r\n$$\r\n```\r\n\\end{z}\r\n"
_SMILES_MULTI = "C(C)%aE1[@]C)(%12C2\nX"
_KERN_MULTI = "!! c\n**kern\t**dynam\n4c\t4x 4y\n=1\t.\n*^\t*\n4c\n*a\t4c\n8dd\t=2\n"
_RING_1 = "ring closure '1' appears 1 time(s), expected exactly 2"
_UNSUPPORTED = "spine splits/merges and multi-system constructs are unsupported"


def _illegal(char: str) -> str:
    return f"character {char!r} not in the SMILES subset"

# One input per issue code, then one multi-issue input per validator that pins
# the order: check by check, each check in scan order; then scanner edge cases.
EXACT_ISSUES = [
    pytest.param(
        "markdown",
        "```\ncode\n",
        [(1, 1, "FENCE_UNCLOSED", "code fence never closed")],
        id="markdown-FENCE_UNCLOSED",
    ),
    pytest.param(
        "markdown",
        "x \\end{array}",
        [(1, 3, "ENV_UNOPENED", "\\end{array} without begin")],
        id="markdown-ENV_UNOPENED",
    ),
    pytest.param(
        "markdown",
        "\\begin{a}\\end{b}",
        [(1, 10, "ENV_MISMATCH", "\\end{b} closes \\begin{a} (1:1)")],
        id="markdown-ENV_MISMATCH",
    ),
    pytest.param(
        "markdown",
        "ok\n  \\begin{array} x",
        [(2, 3, "ENV_UNCLOSED", "\\begin{array} never closed")],
        id="markdown-ENV_UNCLOSED",
    ),
    pytest.param(
        "markdown",
        "x = \\(a+b",
        [(1, 5, "MATH_UNBALANCED", "unclosed \\(")],
        id="markdown-MATH_UNBALANCED",
    ),
    pytest.param(
        "markdown",
        "| a | b | c |\n| 1 | 2 | 3 |\n| 4 | 5 |\n",
        [(3, 1, "TABLE_ARITY", "row has 2 cells, header has 3")],
        id="markdown-TABLE_ARITY",
    ),
    # rows are split as the chart table form splits them: "||" at an edge holds an empty cell
    pytest.param(
        "markdown",
        "| a | b |\n| 1 | 2 ||\n",
        [(2, 1, "TABLE_ARITY", "row has 3 cells, header has 2")],
        id="markdown-edge-double-pipe-row",
    ),
    pytest.param(
        "markdown",
        "|| b |\n| 1 |\n",
        [(2, 1, "TABLE_ARITY", "row has 1 cells, header has 2")],
        id="markdown-edge-double-pipe-header",
    ),
    pytest.param(
        "markdown",
        _MD_MULTI,
        [
            (6, 1, "FENCE_UNCLOSED", "code fence never closed"),
            (1, 1, "ENV_UNOPENED", "\\end{x} without begin"),
            (4, 1, "ENV_UNCLOSED", "\\begin{y} never closed"),
            (1, 9, "MATH_UNBALANCED", "unmatched \\)"),
            (4, 13, "MATH_UNBALANCED", "unclosed \\["),
            (5, 1, "MATH_UNBALANCED", "unclosed $$"),
            (4, 11, "MATH_UNBALANCED", "unclosed $"),
            (3, 1, "TABLE_ARITY", "row has 1 cells, header has 2"),
        ],
        id="markdown-multi",
    ),
    # an escape pair is consumed whole: "\\$" and "\\\\" are no delimiters
    pytest.param(
        "markdown",
        "a \\$ b $c",
        [(1, 8, "MATH_UNBALANCED", "unclosed $")],
        id="markdown-escaped-dollar",
    ),
    pytest.param(
        "markdown",
        "\\\\(x \\)",
        [(1, 6, "MATH_UNBALANCED", "unmatched \\)")],
        id="markdown-escaped-backslash",
    ),
    pytest.param(
        "markdown",
        "$$$",
        [(1, 1, "MATH_UNBALANCED", "unclosed $$"), (1, 3, "MATH_UNBALANCED", "unclosed $")],
        id="markdown-triple-dollar",
    ),
    # a lone backslash at the end of a line is skipped
    pytest.param(
        "markdown",
        "\\(x\\",
        [(1, 1, "MATH_UNBALANCED", "unclosed \\(")],
        id="markdown-trailing-backslash",
    ),
    # issues after a closed fence come check by check: environments, math, then tables
    pytest.param(
        "markdown",
        "```\ncode\n```\n| a | b |\n| 1 |\nx \\(y\n\\end{z}\n",
        [
            (7, 1, "ENV_UNOPENED", "\\end{z} without begin"),
            (6, 3, "MATH_UNBALANCED", "unclosed \\("),
            (5, 1, "TABLE_ARITY", "row has 1 cells, header has 2"),
        ],
        id="markdown-checks-after-closed-fence",
    ),
    # the column one past the end of line 1
    pytest.param(
        "smiles",
        "CC\nCC",
        [(1, 3, "MULTILINE", "SMILES must be a single line")],
        id="smiles-MULTILINE",
    ),
    pytest.param(
        "smiles",
        "CC)C",
        [(1, 3, "PAREN_UNBALANCED", "unmatched ')'")],
        id="smiles-PAREN_UNBALANCED",
    ),
    pytest.param(
        "smiles",
        "C[NH2",
        [(1, 2, "BRACKET_UNCLOSED", "unclosed bracket atom")],
        id="smiles-BRACKET_UNCLOSED",
    ),
    pytest.param(
        "smiles",
        "[@]C",
        [(1, 1, "BRACKET_MALFORMED", "bracket atom '[@]' does not match the bracket grammar")],
        id="smiles-BRACKET_MALFORMED",
    ),
    pytest.param(
        "smiles",
        "C%C",
        [(1, 2, "RING_MALFORMED", "'%' needs two digits")],
        id="smiles-RING_MALFORMED",
    ),
    pytest.param(
        "smiles",
        "CEC",
        [(1, 2, "ATOM_ILLEGAL", "character 'E' not in the SMILES subset")],
        id="smiles-ATOM_ILLEGAL",
    ),
    pytest.param("smiles", "C1CC", [(1, 2, "RING_UNPAIRED", _RING_1)], id="smiles-RING_UNPAIRED"),
    pytest.param(
        "smiles",
        _SMILES_MULTI,
        [
            (1, 20, "MULTILINE", "SMILES must be a single line"),
            (1, 5, "RING_MALFORMED", "'%' needs two digits"),
            (1, 6, "ATOM_ILLEGAL", "character 'a' not in the SMILES subset"),
            (1, 7, "ATOM_ILLEGAL", "character 'E' not in the SMILES subset"),
            (1, 9, "BRACKET_MALFORMED", "bracket atom '[@]' does not match the bracket grammar"),
            (1, 13, "PAREN_UNBALANCED", "unmatched ')'"),
            (1, 14, "PAREN_UNBALANCED", "unclosed '('"),
            (1, 8, "RING_UNPAIRED", _RING_1),
            (1, 15, "RING_UNPAIRED", "ring closure '%12' appears 1 time(s), expected exactly 2"),
            (1, 19, "RING_UNPAIRED", "ring closure '2' appears 1 time(s), expected exactly 2"),
        ],
        id="smiles-multi",
    ),
    # reported at the label's first position
    pytest.param(
        "smiles",
        "C1CC1C1",
        [(1, 2, "RING_UNPAIRED", "ring closure '1' appears 3 time(s), expected exactly 2")],
        id="smiles-ring-label-thrice",
    ),
    # a bracket atom runs to its first "]"; an unclosed one runs to the end of the line
    pytest.param(
        "smiles",
        "C[C",
        [(1, 2, "BRACKET_UNCLOSED", "unclosed bracket atom")],
        id="smiles-bracket-unclosed-at-end",
    ),
    pytest.param(
        "smiles",
        "[C]]",
        [(1, 4, "ATOM_ILLEGAL", _illegal("]"))],
        id="smiles-bracket-stray-close",
    ),
    # a "%" without two ASCII digits is one RING_MALFORMED token; the scan resumes after it
    pytest.param(
        "smiles",
        "C%1C1",
        [(1, 2, "RING_MALFORMED", "'%' needs two digits")],
        id="smiles-percent-one-digit",
    ),
    pytest.param(
        "smiles",
        "C%\u0661\u0662C",
        [
            (1, 2, "RING_MALFORMED", "'%' needs two digits"),
            (1, 3, "ATOM_ILLEGAL", _illegal("\u0661")),
            (1, 4, "ATOM_ILLEGAL", _illegal("\u0662")),
        ],
        id="smiles-percent-arabic-indic-digits",
    ),
    # ring labels, isotopes, charges and kern durations take ASCII digits only,
    # though str.isdigit and re's \d accept '²' and the Arabic-Indic '٣'
    pytest.param(
        "smiles",
        "C²CC²C1",
        [(1, 2, "ATOM_ILLEGAL", _illegal("²")), (1, 5, "ATOM_ILLEGAL", _illegal("²")),
         (1, 7, "RING_UNPAIRED", _RING_1)],
        id="smiles-superscript-ring-label",
    ),
    pytest.param(
        "smiles",
        "C²CC²",
        [(1, 2, "ATOM_ILLEGAL", _illegal("²")), (1, 5, "ATOM_ILLEGAL", _illegal("²"))],
        id="smiles-superscript-ring-pair",
    ),
    pytest.param(
        "smiles",
        "C٣CC٣",
        [(1, 2, "ATOM_ILLEGAL", _illegal("٣")), (1, 5, "ATOM_ILLEGAL", _illegal("٣"))],
        id="smiles-arabic-indic-ring-pair",
    ),
    pytest.param(
        "smiles",
        "C%٣٣CC%٣٣",
        [
            (1, 2, "RING_MALFORMED", "'%' needs two digits"),
            (1, 3, "ATOM_ILLEGAL", _illegal("٣")),
            (1, 4, "ATOM_ILLEGAL", _illegal("٣")),
            (1, 7, "RING_MALFORMED", "'%' needs two digits"),
            (1, 8, "ATOM_ILLEGAL", _illegal("٣")),
            (1, 9, "ATOM_ILLEGAL", _illegal("٣")),
        ],
        id="smiles-arabic-indic-percent-label",
    ),
    pytest.param(
        "smiles",
        "[١٣C]",
        [(1, 1, "BRACKET_MALFORMED", "bracket atom '[١٣C]' does not match the bracket grammar")],
        id="smiles-arabic-indic-isotope",
    ),
    pytest.param(
        "smiles",
        "[Fe+٢]",
        [(1, 1, "BRACKET_MALFORMED", "bracket atom '[Fe+٢]' does not match the bracket grammar")],
        id="smiles-arabic-indic-charge",
    ),
    pytest.param("kern", "", [(1, 1, "EMPTY_INPUT", "no records in input")], id="kern-EMPTY_INPUT"),
    pytest.param(
        "kern",
        "4c\n*-",
        [(1, 1, "SPINE_DECL", "first record must declare **kern spines")],
        id="kern-SPINE_DECL-first-record",
    ),
    pytest.param(
        "kern",
        "!! only a comment\n",
        [(1, 1, "SPINE_DECL", "no spine declaration found")],
        id="kern-SPINE_DECL-none-found",
    ),
    pytest.param(
        "kern",
        "**kern\n4c\n*-\n4d",
        [(4, 1, "SPINE_TERMINATED", "record after spine terminator")],
        id="kern-SPINE_TERMINATED",
    ),
    pytest.param(
        "kern",
        "**kern\t**kern\n4c\n*-\t*-",
        [(2, 1, "SPINE_ARITY", "record has 1 field(s), spine count is 2")],
        id="kern-SPINE_ARITY",
    ),
    pytest.param(
        "kern",
        "**kern\n*^\n*-",
        [(2, 1, "UNSUPPORTED", _UNSUPPORTED)],
        id="kern-UNSUPPORTED",
    ),
    pytest.param(
        "kern",
        "**kern\t**kern\n*clefG2\t4c\n*-\t*-",
        [(2, 1, "MIXED_RECORD", "interpretation mixed with data fields")],
        id="kern-MIXED_RECORD",
    ),
    pytest.param(
        "kern",
        "**kern\t**kern\n=1\t4c\n*-\t*-",
        [(2, 4, "BARLINE_MIXED", "barline record mixes non-barline fields")],
        id="kern-BARLINE_MIXED",
    ),
    pytest.param(
        "kern",
        "**kern\t**kern\n4c\t4h\n*-\t*-",
        [(2, 4, "TOKEN_MALFORMED", "token '4h' does not match the kern token pattern")],
        id="kern-TOKEN_MALFORMED",
    ),
    pytest.param(
        "kern",
        "**kern\n4c",
        [(2, 1, "SPINE_UNTERMINATED", "spines never terminated by *-")],
        id="kern-SPINE_UNTERMINATED",
    ),
    pytest.param(
        "kern",
        "**kern\n٤c\n*-\n",
        [(2, 1, "TOKEN_MALFORMED", "token '٤c' does not match the kern token pattern")],
        id="kern-arabic-indic-duration",
    ),
    pytest.param(
        "kern",
        "**kern\n4%٣c\n*-\n",
        [(2, 1, "TOKEN_MALFORMED", "token '4%٣c' does not match the kern token pattern")],
        id="kern-arabic-indic-rational",
    ),
    pytest.param(
        "kern",
        _KERN_MULTI,
        [
            (3, 4, "TOKEN_MALFORMED", "token '4x' does not match the kern token pattern"),
            (4, 4, "BARLINE_MIXED", "barline record mixes non-barline fields"),
            (5, 1, "UNSUPPORTED", _UNSUPPORTED),
            (6, 1, "SPINE_ARITY", "record has 1 field(s), spine count is 2"),
            (7, 1, "MIXED_RECORD", "interpretation mixed with data fields"),
            (8, 1, "BARLINE_MIXED", "barline record mixes non-barline fields"),
            (8, 1, "SPINE_UNTERMINATED", "spines never terminated by *-"),
        ],
        id="kern-multi",
    ),
    pytest.param(
        "tikz",
        "\\drow (0,0) circle (1);\n",
        [(1, 1, "TIKZ_SYNTAX", "unknown command (expected \\draw)")],
        id="tikz-unknown-command",
    ),
    # the parser stops at the first error, so a second line pins its line number
    pytest.param(
        "tikz",
        "\\draw (0,0) circle (1);\n\\draw (0,0) circle (0);\n",
        [(2, 21, "TIKZ_SYNTAX", "circle radius must be positive")],
        id="tikz-second-line",
    ),
    # one trailing newline is dropped, a second one is a blank line
    pytest.param(
        "tikz",
        "\\draw (0,0) circle (1);\n\n",
        [(2, 1, "TIKZ_SYNTAX", "blank line inside drawing")],
        id="tikz-blank-line",
    ),
    # a lone newline is one blank line, as parse_tikz_subset reads it
    pytest.param(
        "tikz",
        "\n",
        [(1, 1, "TIKZ_SYNTAX", "blank line inside drawing")],
        id="tikz-lone-newline",
    ),
    # only space and tab are TikZ whitespace, so a line of another space is no blank line
    pytest.param(
        "tikz",
        "\x0b\n",
        [(1, 1, "TIKZ_SYNTAX", "unknown command (expected \\draw)")],
        id="tikz-vertical-tab-line",
    ),
]


def issue_tuples(report):
    return [(i.line, i.column, i.code, i.message) for i in report.issues]


@pytest.mark.parametrize(
    "kind,text,expected",
    EXACT_ISSUES,
)
def test_exact_issue_list(kind, text, expected):
    report = VALIDATORS[kind](text)
    assert issue_tuples(report) == expected
    assert report.ok is False


def test_exact_issue_table_covers_every_code():
    covered = {issue[2] for case in EXACT_ISSUES for issue in case.values[2]}
    assert len(covered) == 23


# --- shared behavior ----------------------------------------------------------------


def _noise_texts(n=500):
    rng = random.Random(99)
    alphabet = "abcXYZ019 \t\n(){}[]|$\\*=#%-.:;\"'你好é€"
    for _ in range(n):
        yield "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))


_STABILITY_SAMPLES = [
    "some \\(math\\) and a | table |",
    "C1CCCCC1",
    "**kern\n4c\n*-",
    "\\draw (0,0) circle (1);",
    *(case.values[1] for case in EXACT_ISSUES),
]


def test_ok_stable_under_trailing_newline_and_crlf():
    texts = [*_STABILITY_SAMPLES, *_noise_texts()]
    texts = [t for t in texts if t and not t.endswith("\n")]
    for text in texts:
        for validator in VALIDATORS.values():
            base = issue_tuples(validator(text))
            assert issue_tuples(validator(text + "\n")) == base, text
            assert issue_tuples(validator(text.replace("\n", "\r\n"))) == base, text


def test_markdown_validator_accepts_chart_engine_output():
    for seed in range(20):
        struct, _ = gen_chart_struct(seed)
        assert validate_mathpix_markdown(serialize_chart_struct(struct, "table")).ok
        assert validate_mathpix_markdown(serialize_chart_struct(struct, "dict")).ok


def test_validators_total_on_noise():
    for text in _noise_texts():
        for validator in VALIDATORS.values():
            report = validator(text)
            assert report.ok == (not report.issues)


# --- grammar oracles: SMILES and kern -------------------------------------------------
# Texts written by the grammars README documents, independently of the validators,
# must validate clean; one seeded fault in such a text gives one issue at its place.

_ORGANIC = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I", "b", "c", "n", "o", "s", "p", "*")
_ELEMENTS = ("C", "N", "O", "S", "Fe", "Na", "Zn", "Cl", "U", "c", "n", "o", "s", "p", "*")
_ASCII_DIGITS = st.text("0123456789", min_size=1, max_size=2)
_RING_LABELS = st.sampled_from("0123456789") | st.builds("%{}".format, st.integers(10, 99))
# digits that str.isdigit() takes and the grammars do not: Arabic-Indic, full-width,
# Bengali three and superscript two
_NON_ASCII_DIGITS = st.sampled_from("\u0663\uff13\u09e9\u00b2")


def _maybe(strategy):
    return st.just("") | strategy


# [isotope? symbol (@|@@)? H-count? charge? :class?]
_BRACKET_ATOM = st.builds(
    "[{}{}{}{}{}{}]".format,
    _maybe(_ASCII_DIGITS),
    st.sampled_from(_ELEMENTS),
    st.sampled_from(("", "@", "@@")),
    _maybe(st.builds("H{}".format, _maybe(_ASCII_DIGITS))),
    _maybe(st.sampled_from(("+", "-", "++", "--"))
           | st.builds("{}{}".format, st.sampled_from("+-"), _ASCII_DIGITS)),
    _maybe(st.builds(":{}".format, _ASCII_DIGITS)),
)
_BOND = st.sampled_from(("", *"-=#$:/\\"))


@st.composite
def _smiles_tokens(draw) -> list[tuple[str, str]]:
    """A text of README's SMILES subset as (kind, text) tokens: chains of atoms joined
    by optional bonds, balanced branches, dot-separated components and ring labels,
    each label opened and closed once."""
    tokens: list[tuple[str, str]] = []

    def chain(depth: int) -> None:
        for i in range(draw(st.integers(1, 3))):
            if i:
                tokens.append(("bond", draw(_BOND)))
            if draw(st.booleans()):
                tokens.append(("atom", draw(st.sampled_from(_ORGANIC))))
            else:
                tokens.append(("bracket", draw(_BRACKET_ATOM)))
            for _ in range(draw(st.integers(0, 2 - depth))):
                tokens.append(("open", "("))
                tokens.append(("bond", draw(_BOND)))
                chain(depth + 1)
                tokens.append(("close", ")"))

    for i in range(draw(st.integers(1, 2))):
        if i:
            tokens.append(("dot", "."))
        chain(0)
    atoms = [i for i, (kind, _) in enumerate(tokens) if kind in ("atom", "bracket")]
    rings: dict[int, list[str]] = {}
    if len(atoms) > 1:
        for label in draw(st.lists(_RING_LABELS, max_size=3, unique=True)):
            for at in draw(st.lists(st.sampled_from(atoms), min_size=2, max_size=2, unique=True)):
                rings.setdefault(at, []).append(label)
    return [out for i, token in enumerate(tokens)
            for out in (token, *(("ring", label) for label in rings.get(i, ())))
            if out[1]]


def _joined(tokens: list[tuple[str, str]]) -> str:
    return "".join(text for _, text in tokens)


def _column(tokens: list[tuple[str, str]], index: int) -> int:
    return len(_joined(tokens[:index])) + 1


@given(_smiles_tokens())
@settings(max_examples=200, deadline=None)
def test_every_text_of_the_documented_smiles_subset_validates_clean(tokens):
    assert issue_tuples(validate_smiles(_joined(tokens))) == []


@given(_smiles_tokens(), st.data())
@settings(max_examples=100, deadline=None)
def test_smiles_dropped_ring_digit_is_unpaired_at_its_other_use(tokens, data):
    digits = [i for i, (kind, text) in enumerate(tokens) if kind == "ring" and len(text) == 1]
    assume(digits)
    dropped = data.draw(st.sampled_from(digits))
    label = tokens[dropped][1]
    tokens = tokens[:dropped] + tokens[dropped + 1 :]
    (other,) = [i for i, token in enumerate(tokens) if token == ("ring", label)]
    message = f"ring closure {label!r} appears 1 time(s), expected exactly 2"
    assert issue_tuples(validate_smiles(_joined(tokens))) == [
        (1, _column(tokens, other), "RING_UNPAIRED", message)
    ]


@given(_smiles_tokens(), st.data())
@settings(max_examples=100, deadline=None)
def test_smiles_deleted_close_paren_is_unbalanced_at_its_open_paren(tokens, data):
    # a top-level branch: a nested one's ')' would leave its outer '(' open instead
    opens, top_level = [], {}
    for i, (kind, _) in enumerate(tokens):
        if kind == "open":
            opens.append(i)
        elif kind == "close":
            opened = opens.pop()
            if not opens:
                top_level[i] = opened
    assume(top_level)
    close = data.draw(st.sampled_from(sorted(top_level)))
    column = _column(tokens, top_level[close])
    text = _joined(tokens[:close] + tokens[close + 1 :])
    assert issue_tuples(validate_smiles(text)) == [(1, column, "PAREN_UNBALANCED", "unclosed '('")]


@given(_smiles_tokens(), st.data())
@settings(max_examples=100, deadline=None)
def test_smiles_non_ascii_digit_in_a_bracket_atom_is_malformed(tokens, data):
    places = [(i, at) for i, (kind, text) in enumerate(tokens) if kind == "bracket"
              for at, char in enumerate(text) if char in "0123456789"]
    assume(places)
    i, at = data.draw(st.sampled_from(places))
    atom = tokens[i][1]
    atom = atom[:at] + data.draw(_NON_ASCII_DIGITS) + atom[at + 1 :]
    tokens = tokens[:i] + [("bracket", atom)] + tokens[i + 1 :]
    message = f"bracket atom {atom!r} does not match the bracket grammar"
    assert issue_tuples(validate_smiles(_joined(tokens))) == [
        (1, _column(tokens, i), "BRACKET_MALFORMED", message)
    ]


@given(_smiles_tokens(), st.data())
@settings(max_examples=100, deadline=None)
def test_smiles_non_ascii_ring_digit_is_illegal_and_unpairs_its_label(tokens, data):
    digits = [i for i, (kind, text) in enumerate(tokens) if kind == "ring" and len(text) == 1]
    assume(digits)
    swapped = data.draw(st.sampled_from(digits))
    label, char = tokens[swapped][1], data.draw(_NON_ASCII_DIGITS)
    tokens = tokens[:swapped] + [("atom", char)] + tokens[swapped + 1 :]
    (other,) = [i for i, token in enumerate(tokens) if token == ("ring", label)]
    message = f"ring closure {label!r} appears 1 time(s), expected exactly 2"
    assert issue_tuples(validate_smiles(_joined(tokens))) == [
        (1, _column(tokens, swapped), "ATOM_ILLEGAL", _illegal(char)),
        (1, _column(tokens, other), "RING_UNPAIRED", message),
    ]


# open ties/slurs, a duration (digits, optional %rational, dots), pitch letters or a rest,
# then modifiers
_KERN_NOTE = st.builds(
    "{}{}{}{}{}{}".format,
    st.sampled_from(("", "[", "(", "{", "([")),
    _ASCII_DIGITS,
    _maybe(st.builds("%{}".format, _ASCII_DIGITS)),
    st.sampled_from(("", ".", "..")),
    st.builds(str.__mul__, st.sampled_from("abcdefgABCDEFGr"), st.integers(1, 3)),
    st.text("#-n';LJkK/\\])}", max_size=3),
)
_KERN_CHORD = st.lists(_KERN_NOTE, min_size=1, max_size=3).map(" ".join)


@st.composite
def _kern_records(draw) -> list[list[str]]:
    """A single-system **kern text of README's subset as records of tab-separated fields:
    declared spines; interpretations, local comments, barlines and data records of notes,
    chords and nulls; then *- in every spine. Global comments are one-field records."""
    spines = draw(st.integers(1, 3))

    def comments() -> list[list[str]]:
        texts = draw(st.lists(st.sampled_from(("", "!COM: x", " c")), max_size=2))
        return [[f"!!{text}"] for text in texts]

    def record(kind: str) -> list[str]:
        def field() -> str:
            if kind == "interp":
                return draw(st.sampled_from(("*", "*clefG2", "*clefF4", "*M4/4", "*k[f#]")))
            if kind == "local":
                return draw(st.sampled_from(("!", "! comment")))
            if kind == "bar":
                return "=" + draw(st.sampled_from(("", "1", "12", "=")))
            return draw(st.just(".") | _KERN_CHORD)

        return [field() for _ in range(spines)]

    body = [record(kind) for kind in draw(st.lists(
        st.sampled_from(("interp", "local", "bar", "data", "data")), max_size=8))]
    return [*comments(), ["**kern"] * spines, *body, ["*-"] * spines, *comments()]


def _kern_text(records: list[list[str]], newline: str) -> str:
    return "\n".join("\t".join(fields) for fields in records) + newline


@given(_kern_records(), st.sampled_from(("", "\n")))
@settings(max_examples=200, deadline=None)
def test_every_text_of_the_documented_kern_subset_validates_clean(records, newline):
    assert issue_tuples(validate_kern(_kern_text(records, newline))) == []


@given(_kern_records(), st.data())
@settings(max_examples=100, deadline=None)
def test_kern_non_ascii_duration_digit_is_a_malformed_token(records, data):
    notes = [(r, f, n) for r, fields in enumerate(records) for f, field in enumerate(fields)
             if field[0] in "[({0123456789" for n in range(len(field.split(" ")))]
    assume(notes)
    r, f, n = data.draw(st.sampled_from(notes))
    chord = records[r][f].split(" ")
    at = next(i for i, char in enumerate(chord[n]) if char in "0123456789")
    chord[n] = chord[n][:at] + data.draw(_NON_ASCII_DIGITS) + chord[n][at + 1 :]
    records[r][f] = " ".join(chord)
    column = 1 + sum(len(field) + 1 for field in records[r][:f])
    message = f"token {chord[n]!r} does not match the kern token pattern"
    assert issue_tuples(validate_kern(_kern_text(records, "\n"))) == [
        (r + 1, column, "TOKEN_MALFORMED", message)
    ]


@given(_kern_records())
@settings(max_examples=100, deadline=None)
def test_kern_without_its_terminator_is_unterminated_at_the_last_record(records):
    records = [fields for fields in records if fields[0] != "*-"]
    assert issue_tuples(validate_kern(_kern_text(records, "\n"))) == [
        (len(records), 1, "SPINE_UNTERMINATED", "spines never terminated by *-")
    ]
