"""The cursor and the positioned error shared by the chart and TikZ readers, and the
pipe-row split shared by the chart table form and the markdown validator."""

from __future__ import annotations

import re


class TextParseError(ValueError):
    """Text rejected at a 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class Scanner:
    """A read position in ``text``, whose first line is line ``line_no``.

    Subclasses set ``whitespace``, the characters skipped before each token,
    and ``error_class``, the TextParseError subclass they raise.
    """

    def __init__(self, text: str, line_no: int = 1):
        self.text = text
        self.pos = 0
        self.line_no = line_no
        self.whitespace = self.whitespace  # skip_ws reads an instance attribute faster

    def error(self, message: str, pos: int | None = None) -> TextParseError:
        at = self.pos if pos is None else pos
        line = self.line_no + self.text.count("\n", 0, at)
        return self.error_class(line, at - self.text.rfind("\n", 0, at), message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in self.whitespace:
            self.pos += 1

    def peek(self) -> str:
        """The next character after whitespace; "" at the end of the text."""
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def match(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str, what: str | None = None) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {what or literal!r}")
        self.pos += len(literal)

    def token(self, pattern: re.Pattern, what: str) -> tuple[str, int]:
        """The ``pattern`` match after whitespace, and the position where it starts."""
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if not m:
            raise self.error(f"expected {what}")
        start, self.pos = self.pos, m.end()
        return m.group(), start


def split_row(row: str) -> list[str]:
    """The stripped cells of a stripped pipe-table row that starts with ``|``.

    The first pipe opens the row and a last pipe closes it, so ``"|| s |"``
    has two cells, the first one empty, and ``"| a | b ||"`` has three.
    """
    return [cell.strip() for cell in row[1:].removesuffix("|").split("|")]
