"""Format validator behaviour, stability and cross-engine consistency."""

import random

import pytest

from ocrkit.charts import gen_chart_struct, serialize_chart_struct
from ocrkit.geometry import emit_tikz, gen_scene
from ocrkit.validators import (
    VALIDATORS,
    validate_kern,
    validate_mathpix_markdown,
    validate_smiles,
    validate_tikz,
)


def codes(report):
    return [issue.code for issue in report.issues]


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
        doc = emit_tikz(gen_scene(seed))
        assert validate_tikz(doc.source).ok


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
    # any character str.isdigit accepts is a ring label, so the two '²' pair up
    pytest.param(
        "smiles",
        "C²CC²C1",
        [(1, 7, "RING_UNPAIRED", _RING_1)],
        id="smiles-superscript-ring-label",
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
