"""Syntactic validators for the structured OCR output formats.

Each validator is total: any text that decodes as UTF-8 yields a report, never
an exception, and every issue points at a 1-based line/column inside the
input. Checks are deliberately syntax-only; chemical valence, musical voice
leading and math semantics are out of scope. CRLF line endings are normalized
and a trailing newline never changes the outcome.
"""

from __future__ import annotations

import re

from ._record import Record
from ._scan import split_row
from .geometry import TikzParseError, parse_tikz_subset


class Issue(Record):
    __slots__ = ("line", "column", "code", "message")

    def __init__(self, line: int, column: int, code: str, message: str):
        super().__init__(line, column, code, message)


class ValidationReport(Record):
    __slots__ = ("ok", "issues")

    def __init__(self, ok: bool, issues: tuple[Issue, ...]):
        super().__init__(ok, issues)


def _lines_of(text: str) -> list[str]:
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


class _Issues:
    """The issues found in one text, in the order they are added; each
    position is clamped into the text (a column may be one past the end)."""

    def __init__(self, text: str):
        self.lines = _lines_of(text)
        self.found: list[Issue] = []

    def add(self, line: int, column: int, code: str, message: str) -> None:
        lines = self.lines
        line = min(max(line, 1), max(len(lines), 1))
        width = len(lines[line - 1]) + 1 if lines else 1
        self.found.append(Issue(line, min(max(column, 1), width), code, message))

    def report(self) -> ValidationReport:
        return ValidationReport(not self.found, tuple(self.found))


# --- Mathpix-flavoured markdown -------------------------------------------

_ENV_RE = re.compile(r"\\(begin|end)\{([^}]*)\}")
_OPEN_FOR = {"\\)": "\\(", "\\]": "\\["}
# an escape pair (consumed whole, so "\\$" is no delimiter), "$$" or "$"
_MATH_TOKEN_RE = re.compile(r"\\.|\$\$|\$")


def validate_mathpix_markdown(text: str) -> ValidationReport:
    """Check math delimiter balance, environment pairing, table arity and
    code-fence termination."""
    found = _Issues(text)
    lines = found.lines

    fenced: list[bool] = []
    fence_open: tuple[int, int] | None = None
    for i, line in enumerate(lines):
        is_fence = line.lstrip().startswith("```")
        fenced.append(is_fence or fence_open is not None)
        if is_fence:
            fence_open = None if fence_open else (i + 1, line.index("```") + 1)
    if fence_open is not None:
        found.add(*fence_open, "FENCE_UNCLOSED", "code fence never closed")

    env_stack: list[tuple[str, int, int]] = []
    for i, line in enumerate(lines):
        if fenced[i]:
            continue
        for m in _ENV_RE.finditer(line):
            kind, name = m.group(1), m.group(2)
            if kind == "begin":
                env_stack.append((name, i + 1, m.start() + 1))
            elif not env_stack:
                found.add(i + 1, m.start() + 1, "ENV_UNOPENED", f"\\end{{{name}}} without begin")
            else:
                open_name, oline, ocol = env_stack.pop()
                if open_name != name:
                    found.add(
                        i + 1,
                        m.start() + 1,
                        "ENV_MISMATCH",
                        f"\\end{{{name}}} closes \\begin{{{open_name}}} ({oline}:{ocol})",
                    )
    for name, oline, ocol in env_stack:
        found.add(oline, ocol, "ENV_UNCLOSED", f"\\begin{{{name}}} never closed")

    bracket_stack: list[tuple[str, int, int]] = []
    dollar_open: tuple[int, int] | None = None
    ddollar_open: tuple[int, int] | None = None
    for i, line in enumerate(lines):
        if fenced[i]:
            continue
        for m in _MATH_TOKEN_RE.finditer(line):
            tok, at = m.group(), (i + 1, m.start() + 1)
            if tok in ("\\(", "\\["):
                bracket_stack.append((tok, *at))
            elif tok in _OPEN_FOR:
                if bracket_stack and bracket_stack[-1][0] == _OPEN_FOR[tok]:
                    bracket_stack.pop()
                else:
                    found.add(*at, "MATH_UNBALANCED", f"unmatched {tok}")
            elif tok == "$$":
                ddollar_open = None if ddollar_open else at
            elif tok == "$":
                dollar_open = None if dollar_open else at
    for tok, line_no, col in bracket_stack:
        found.add(line_no, col, "MATH_UNBALANCED", f"unclosed {tok}")
    if ddollar_open:
        found.add(*ddollar_open, "MATH_UNBALANCED", "unclosed $$")
    if dollar_open:
        found.add(*dollar_open, "MATH_UNBALANCED", "unclosed $")

    header_arity: int | None = None
    for i, line in enumerate(lines):
        if fenced[i] or not line.strip().startswith("|"):
            header_arity = None
            continue
        cells = split_row(line)
        if header_arity is None:
            header_arity = len(cells)
        elif len(cells) != header_arity:
            found.add(
                i + 1, 1, "TABLE_ARITY", f"row has {len(cells)} cells, header has {header_arity}"
            )
    return found.report()


# --- SMILES -----------------------------------------------------------------

_BRACKET_ATOM_RE = re.compile(
    r"\[\d*(?:[A-Z][a-z]?|[bcnops]|\*)(?:@{1,2})?(?:H\d*)?"
    r"(?:[+-]\d*|\+{2,}|-{2,})?(?::\d+)?\]"
)
_TWO_LETTER_ATOMS = ("Cl", "Br")
_ONE_LETTER_ATOMS = set("BCNOPSFI")
_AROMATIC_ATOMS = set("bcnops")
_BOND_CHARS = set("-=#$:/\\")


def validate_smiles(text: str) -> ValidationReport:
    """Check parenthesis balance, bracket-atom syntax, ring-closure pairing
    and that every atom/bond token belongs to the organic subset."""
    found = _Issues(text)
    lines = found.lines
    if len(lines) > 1:
        found.add(1, len(lines[0]) + 1, "MULTILINE", "SMILES must be a single line")
    s = lines[0] if lines else ""
    paren_stack: list[int] = []
    rings: dict[str, list[int]] = {}  # label -> positions, in order of first use
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            paren_stack.append(i)
            i += 1
        elif ch == ")":
            if paren_stack:
                paren_stack.pop()
            else:
                found.add(1, i + 1, "PAREN_UNBALANCED", "unmatched ')'")
            i += 1
        elif ch == "[":
            m = _BRACKET_ATOM_RE.match(s, i)
            if m:
                i = m.end()
            else:
                end = s.find("]", i)
                if end < 0:
                    found.add(1, i + 1, "BRACKET_UNCLOSED", "unclosed bracket atom")
                    i = len(s)
                else:
                    found.add(
                        1,
                        i + 1,
                        "BRACKET_MALFORMED",
                        f"bracket atom {s[i:end + 1]!r} does not match the bracket grammar",
                    )
                    i = end + 1
        elif ch == "%":
            if i + 2 < len(s) and s[i + 1].isdigit() and s[i + 2].isdigit():
                rings.setdefault(s[i : i + 3], []).append(i)
                i += 3
            else:
                found.add(1, i + 1, "RING_MALFORMED", "'%' needs two digits")
                i += 1
        elif ch.isdigit():
            rings.setdefault(ch, []).append(i)
            i += 1
        elif s.startswith(_TWO_LETTER_ATOMS, i):
            i += 2
        elif ch in _ONE_LETTER_ATOMS or ch in _AROMATIC_ATOMS or ch == "*":
            i += 1
        elif ch in _BOND_CHARS or ch == ".":
            i += 1
        else:
            found.add(1, i + 1, "ATOM_ILLEGAL", f"character {ch!r} not in the SMILES subset")
            i += 1
    for pos in paren_stack:
        found.add(1, pos + 1, "PAREN_UNBALANCED", "unclosed '('")
    for label, positions in rings.items():
        if len(positions) != 2:
            found.add(
                1,
                positions[0] + 1,
                "RING_UNPAIRED",
                f"ring closure {label!r} appears {len(positions)} time(s), expected exactly 2",
            )
    return found.report()


# --- Humdrum **kern ----------------------------------------------------------

# Documented token subset: optional opening ties/slurs, a duration (digits,
# optional %rational part, optional dots), pitch letters or a rest, then
# accidental/articulation/beam/stem modifiers.
_KERN_NOTE_RE = re.compile(
    r"^[\[({]*"
    r"\d+(?:%\d+)?\.*"
    r"(?:[a-gA-G]+|r+)"
    r"[-#n_'\"`~^:;,.xXyYqQJLKkMmTtWwSsRr$&<>@+|=/\\\])}]*$"
)


def validate_kern(text: str) -> ValidationReport:
    """Check spine declaration/termination, per-record field arity, barline
    consistency and the documented duration-pitch token pattern."""
    found = _Issues(text)
    lines = found.lines
    if not lines:
        found.add(1, 1, "EMPTY_INPUT", "no records in input")
        return found.report()
    spine_count: int | None = None
    terminated = False
    for idx, line in enumerate(lines):
        ln = idx + 1
        if line.startswith("!!"):
            continue
        fields = line.split("\t")
        if spine_count is None:
            if not (all(f.startswith("**") and len(f) > 2 for f in fields) and "**kern" in fields):
                found.add(ln, 1, "SPINE_DECL", "first record must declare **kern spines")
            spine_count = len(fields)
            continue
        if terminated:
            found.add(ln, 1, "SPINE_TERMINATED", "record after spine terminator")
            continue
        if len(fields) != spine_count:
            found.add(
                ln,
                1,
                "SPINE_ARITY",
                f"record has {len(fields)} field(s), spine count is {spine_count}",
            )
            continue
        if line.startswith("!"):
            continue
        if all(f.startswith("*") for f in fields):
            if all(f == "*-" for f in fields):
                terminated = True
            elif any(f in ("*^", "*v") or f.startswith("**") for f in fields):
                found.add(
                    ln,
                    1,
                    "UNSUPPORTED",
                    "spine splits/merges and multi-system constructs are unsupported",
                )
            continue
        if any(f.startswith("*") for f in fields):
            found.add(ln, 1, "MIXED_RECORD", "interpretation mixed with data fields")
            continue
        is_barline = [f.startswith("=") for f in fields]
        if any(is_barline):
            if not all(is_barline):
                col = 1 + sum(len(f) + 1 for f in fields[: is_barline.index(False)])
                found.add(ln, col, "BARLINE_MIXED", "barline record mixes non-barline fields")
            continue
        col = 1
        for f in fields:
            if f != ".":
                for sub in f.split(" "):
                    if not _KERN_NOTE_RE.match(sub):
                        found.add(
                            ln,
                            col,
                            "TOKEN_MALFORMED",
                            f"token {sub!r} does not match the kern token pattern",
                        )
                        break
            col += len(f) + 1
    if spine_count is None:
        found.add(1, 1, "SPINE_DECL", "no spine declaration found")
    elif not terminated:
        found.add(len(lines), 1, "SPINE_UNTERMINATED", "spines never terminated by *-")
    return found.report()


# --- TikZ (delegates to the geometry parser) ---------------------------------


def validate_tikz(text: str) -> ValidationReport:
    """Accept exactly the geometry engine's TikZ subset."""
    found = _Issues(text)
    source = "\n".join(found.lines)
    try:
        # the parser drops one trailing empty line: without the added "\n",
        # a last line of the input that is blank would go unreported
        parse_tikz_subset(source + "\n" if source else "")
    except TikzParseError as exc:
        found.add(exc.line, exc.column, "TIKZ_SYNTAX", exc.message)
    return found.report()


VALIDATORS = {
    "markdown": validate_mathpix_markdown,
    "tikz": validate_tikz,
    "smiles": validate_smiles,
    "kern": validate_kern,
}
