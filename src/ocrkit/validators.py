"""Syntactic validators for the structured OCR output formats.

Each validator is total: any text that decodes as UTF-8 yields a report, never
an exception, and every issue points at a 1-based line/column inside the
input (a column may be one past the end of its line): each position is
computed inside the input, never clamped into it. Checks are deliberately
syntax-only; chemical valence, musical voice leading and math semantics are
out of scope. CRLF line endings are normalized and a trailing newline never
changes the outcome of a non-empty text (an empty text has no lines, a lone
newline is one blank line).
"""

from __future__ import annotations

import re

from ._record import Record
from ._scan import split_row


class Issue(Record):
    __slots__ = ("line", "column", "code", "message")

    def __init__(self, line: int, column: int, code: str, message: str):
        super().__init__(line, column, code, message)


class ValidationReport(Record):
    __slots__ = ("issues",)

    def __init__(self, issues: tuple[Issue, ...] | list[Issue]):
        super().__init__(tuple(issues))

    @property
    def ok(self) -> bool:
        """True when the text has no issue."""
        return not self.issues


def _lines_of(text: str) -> list[str]:
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


# --- Mathpix-flavoured markdown -------------------------------------------

_ENV_RE = re.compile(r"\\(begin|end)\{([^}]*)\}")
_OPEN_FOR = {"\\)": "\\(", "\\]": "\\["}
# an escape pair (consumed whole, so "\\$" is no delimiter), "$$" or "$"
_MATH_TOKEN_RE = re.compile(r"\\.|\$\$|\$")


def validate_mathpix_markdown(text: str) -> ValidationReport:
    """Check math delimiter balance, environment pairing, table arity and
    code-fence termination."""
    fence_open: tuple[int, int] | None = None
    env_issues: list[Issue] = []
    math_issues: list[Issue] = []
    table_issues: list[Issue] = []
    env_stack: list[tuple[str, int, int]] = []
    bracket_stack: list[tuple[str, int, int]] = []
    dollar_open: tuple[int, int] | None = None
    ddollar_open: tuple[int, int] | None = None
    header_arity: int | None = None
    for ln, line in enumerate(_lines_of(text), 1):
        # a fence line and the lines inside a fence hold no environment, math or table
        is_fence = line.lstrip().startswith("```")
        if is_fence:
            fence_open = None if fence_open else (ln, line.index("```") + 1)
        if is_fence or fence_open:
            header_arity = None
            continue
        for m in _ENV_RE.finditer(line):
            kind, name = m.group(1), m.group(2)
            if kind == "begin":
                env_stack.append((name, ln, m.start() + 1))
            elif not env_stack:
                message = f"\\end{{{name}}} without begin"
                env_issues.append(Issue(ln, m.start() + 1, "ENV_UNOPENED", message))
            else:
                open_name, oline, ocol = env_stack.pop()
                if open_name != name:
                    message = f"\\end{{{name}}} closes \\begin{{{open_name}}} ({oline}:{ocol})"
                    env_issues.append(Issue(ln, m.start() + 1, "ENV_MISMATCH", message))
        for m in _MATH_TOKEN_RE.finditer(line):
            tok, at = m.group(), (ln, m.start() + 1)
            if tok in ("\\(", "\\["):
                bracket_stack.append((tok, *at))
            elif tok in _OPEN_FOR:
                if bracket_stack and bracket_stack[-1][0] == _OPEN_FOR[tok]:
                    bracket_stack.pop()
                else:
                    math_issues.append(Issue(*at, "MATH_UNBALANCED", f"unmatched {tok}"))
            elif tok == "$$":
                ddollar_open = None if ddollar_open else at
            elif tok == "$":
                dollar_open = None if dollar_open else at
        if not line.strip().startswith("|"):
            header_arity = None
            continue
        arity = len(split_row(line.strip()))
        if header_arity is None:
            header_arity = arity
        elif arity != header_arity:
            message = f"row has {arity} cells, header has {header_arity}"
            table_issues.append(Issue(ln, 1, "TABLE_ARITY", message))
    issues = [Issue(*fence_open, "FENCE_UNCLOSED", "code fence never closed")] if fence_open else []
    for name, oline, ocol in env_stack:
        env_issues.append(Issue(oline, ocol, "ENV_UNCLOSED", f"\\begin{{{name}}} never closed"))
    for tok, line_no, col in bracket_stack:
        math_issues.append(Issue(line_no, col, "MATH_UNBALANCED", f"unclosed {tok}"))
    if ddollar_open:
        math_issues.append(Issue(*ddollar_open, "MATH_UNBALANCED", "unclosed $$"))
    if dollar_open:
        math_issues.append(Issue(*dollar_open, "MATH_UNBALANCED", "unclosed $"))
    return ValidationReport(issues + env_issues + math_issues + table_issues)


# --- SMILES -----------------------------------------------------------------

# ASCII digits only, as OpenSMILES writes them (re's \d matches every Unicode digit)
_BRACKET_ATOM_RE = re.compile(
    r"\[[0-9]*(?:[A-Z][a-z]?|[bcnops]|\*)(?:@{1,2})?(?:H[0-9]*)?"
    r"(?:[+-][0-9]*|\+{2,}|-{2,})?(?::[0-9]+)?\]"
)
# A bracket atom runs to its first "]" (or to the end of the text, unclosed);
# a "%" without two ASCII digits is a token of its own.
_SMILES_TOKEN_RE = re.compile(r"\[[^\]]*\]?|%[0-9]{2}|Cl|Br|.")
# organic-subset atoms, aromatic atoms, the wildcard, bonds and the dot
_PLAIN_TOKENS = frozenset(["Cl", "Br", *"BCNOPSFI", *"bcnops", "*", *"-=#$:/\\", "."])


def validate_smiles(text: str) -> ValidationReport:
    """Check parenthesis balance, bracket-atom syntax, ring-closure pairing
    and that every atom/bond token belongs to the organic subset."""
    lines = _lines_of(text)
    issues: list[Issue] = []
    if len(lines) > 1:
        issues.append(Issue(1, len(lines[0]) + 1, "MULTILINE", "SMILES must be a single line"))
    paren_stack: list[int] = []
    rings: dict[str, list[int]] = {}  # label -> columns, in order of first use
    for m in _SMILES_TOKEN_RE.finditer(lines[0] if lines else ""):
        tok, col = m.group(), m.start() + 1
        if tok in _PLAIN_TOKENS:
            continue
        if tok == "(":
            paren_stack.append(col)
        elif tok == ")":
            if paren_stack:
                paren_stack.pop()
            else:
                issues.append(Issue(1, col, "PAREN_UNBALANCED", "unmatched ')'"))
        elif tok[0] == "[":
            if not tok.endswith("]"):
                issues.append(Issue(1, col, "BRACKET_UNCLOSED", "unclosed bracket atom"))
            elif not _BRACKET_ATOM_RE.fullmatch(tok):
                message = f"bracket atom {tok!r} does not match the bracket grammar"
                issues.append(Issue(1, col, "BRACKET_MALFORMED", message))
        elif tok == "%":
            issues.append(Issue(1, col, "RING_MALFORMED", "'%' needs two digits"))
        elif "0" <= tok[-1] <= "9":  # ASCII only: str.isdigit() is also true for "²" or "٣"
            rings.setdefault(tok, []).append(col)
        else:
            message = f"character {tok!r} not in the SMILES subset"
            issues.append(Issue(1, col, "ATOM_ILLEGAL", message))
    for col in paren_stack:
        issues.append(Issue(1, col, "PAREN_UNBALANCED", "unclosed '('"))
    for label, columns in rings.items():
        if len(columns) != 2:
            message = f"ring closure {label!r} appears {len(columns)} time(s), expected exactly 2"
            issues.append(Issue(1, columns[0], "RING_UNPAIRED", message))
    return ValidationReport(issues)


# --- Humdrum **kern ----------------------------------------------------------

# Documented token subset: optional opening ties/slurs, a duration (digits,
# optional %rational part, optional dots), pitch letters or a rest, then
# accidental/articulation/beam/stem modifiers. Digits are ASCII only.
_KERN_NOTE_RE = re.compile(
    r"^[\[({]*"
    r"[0-9]+(?:%[0-9]+)?\.*"
    r"(?:[a-gA-G]+|r+)"
    r"[-#n_'\"`~^:;,.xXyYqQJLKkMmTtWwSsRr$&<>@+|=/\\\])}]*$"
)


def validate_kern(text: str) -> ValidationReport:
    """Check spine declaration/termination, per-record field arity, barline
    consistency and the documented duration-pitch token pattern."""
    lines = _lines_of(text)
    if not lines:
        return ValidationReport((Issue(1, 1, "EMPTY_INPUT", "no records in input"),))
    issues: list[Issue] = []
    spine_count: int | None = None
    terminated = False
    for idx, line in enumerate(lines):
        ln = idx + 1
        if line.startswith("!!"):
            continue
        fields = line.split("\t")
        if spine_count is None:
            if not (all(f.startswith("**") and len(f) > 2 for f in fields) and "**kern" in fields):
                message = "first record must declare **kern spines"
                issues.append(Issue(ln, 1, "SPINE_DECL", message))
            spine_count = len(fields)
            continue
        if terminated:
            issues.append(Issue(ln, 1, "SPINE_TERMINATED", "record after spine terminator"))
            continue
        if len(fields) != spine_count:
            message = f"record has {len(fields)} field(s), spine count is {spine_count}"
            issues.append(Issue(ln, 1, "SPINE_ARITY", message))
            continue
        if line.startswith("!"):
            continue
        if all(f.startswith("*") for f in fields):
            if all(f == "*-" for f in fields):
                terminated = True
            elif any(f in ("*^", "*v") or f.startswith("**") for f in fields):
                message = "spine splits/merges and multi-system constructs are unsupported"
                issues.append(Issue(ln, 1, "UNSUPPORTED", message))
            continue
        if any(f.startswith("*") for f in fields):
            issues.append(Issue(ln, 1, "MIXED_RECORD", "interpretation mixed with data fields"))
            continue
        is_barline = [f.startswith("=") for f in fields]
        if any(is_barline):
            if not all(is_barline):
                col = 1 + sum(len(f) + 1 for f in fields[: is_barline.index(False)])
                message = "barline record mixes non-barline fields"
                issues.append(Issue(ln, col, "BARLINE_MIXED", message))
            continue
        col = 1
        for f in fields:
            if f != ".":
                for sub in f.split(" "):
                    if not _KERN_NOTE_RE.match(sub):
                        message = f"token {sub!r} does not match the kern token pattern"
                        issues.append(Issue(ln, col, "TOKEN_MALFORMED", message))
                        break
            col += len(f) + 1
    if spine_count is None:
        issues.append(Issue(1, 1, "SPINE_DECL", "no spine declaration found"))
    elif not terminated:
        message = "spines never terminated by *-"
        issues.append(Issue(len(lines), 1, "SPINE_UNTERMINATED", message))
    return ValidationReport(issues)


# --- TikZ (delegates to the geometry engine's reader) ------------------------


def validate_tikz(text: str) -> ValidationReport:
    """Accept exactly the geometry engine's TikZ subset."""
    from .tikz import TikzParseError, parse_tikz_subset  # only this check needs the reader

    try:
        parse_tikz_subset(text.replace("\r\n", "\n").replace("\r", "\n"))
    except TikzParseError as exc:
        return ValidationReport((Issue(exc.line, exc.column, "TIKZ_SYNTAX", exc.message),))
    return ValidationReport(())


VALIDATORS = {
    "markdown": validate_mathpix_markdown,
    "tikz": validate_tikz,
    "smiles": validate_smiles,
    "kern": validate_kern,
}
