"""The reader of the TikZ subset that ``geometry.emit_tikz`` writes.

``parse_tikz_subset(emit_tikz(scene)) == scene`` for every valid scene, and
any other text raises TikzParseError at a 1-based line and column. Numbers
are ``-?[0-9]+(.[0-9]+)?`` in ASCII digits, as emission writes them.
"""

from __future__ import annotations

import re
from decimal import Decimal

from ._scan import Scanner, TextParseError
from .geometry import (
    Circle,
    Curve,
    Element,
    GeomScene,
    Point,
    Rectangle,
    Segment,
    Triangle,
    canon_decimal,
)


class TikzParseError(TextParseError):
    """Parse failure with 1-based line and column."""


_NUMBER_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")  # ASCII digits only, as emit_tikz writes


class _Cursor(Scanner):
    """One TikZ line; a CR inside it is no whitespace."""

    whitespace = " \t"
    error_class = TikzParseError

    def number(self) -> Decimal:
        text, start = self.token(_NUMBER_RE, "a number")
        try:
            return canon_decimal(text)
        except ValueError as exc:
            raise self.error(str(exc), start) from exc


def _parse_point(cur: _Cursor) -> Point:
    cur.expect("(", "a coordinate")
    x = cur.number()
    cur.expect(",")
    y = cur.number()
    cur.expect(")")
    return Point(x, y)


def _parse_options(cur: _Cursor) -> dict[str, str]:
    opts: dict[str, str] = {}
    if not cur.match("["):
        return opts
    while True:
        cur.skip_ws()
        end = cur.text.find("]", cur.pos)
        comma = cur.text.find(",", cur.pos)
        if end < 0:
            raise cur.error("unterminated option list")
        stop = end if comma < 0 or comma > end else comma
        item = cur.text[cur.pos : stop].strip(cur.whitespace)
        if "=" not in item:
            raise cur.error(f"malformed option {item!r}")
        key, value = item.split("=", 1)
        opts[key.strip(cur.whitespace)] = value.strip(cur.whitespace)
        cur.pos = stop + 1
        if stop == end:
            return opts


def _parse_domain(cur: _Cursor, opts: dict[str, str]) -> tuple[Decimal, Decimal]:
    if "domain" not in opts:
        raise cur.error("plot requires a domain=lo:hi option")
    lo_s, sep, hi_s = opts["domain"].partition(":")
    if not sep:
        raise cur.error(f"malformed domain {opts['domain']!r}")
    bounds = []
    for text in (lo_s.strip(cur.whitespace), hi_s.strip(cur.whitespace)):
        if not _NUMBER_RE.fullmatch(text):  # Decimal would also read 1e1, .5 or +1
            raise cur.error(f"not a decimal number: {text!r}")
        try:
            bounds.append(canon_decimal(text))
        except ValueError as exc:
            raise cur.error(str(exc)) from exc
    return bounds[0], bounds[1]


def _parse_poly(cur: _Cursor) -> list[tuple[int, Decimal]]:
    """Parse 'a*\\x*\\x + b*\\x + c' style sums into (order, coefficient) terms."""
    terms: list[tuple[int, Decimal]] = []
    sign = Decimal(-1) if cur.match("-") else Decimal(1)
    while True:
        coef = cur.number() * sign
        if cur.match("*\\x*\\x"):
            order = 2
        elif cur.match("*\\x"):
            order = 1
        else:
            order = 0
        terms.append((order, coef))
        if cur.match("+"):
            sign = Decimal(1)
        elif cur.match("-"):
            sign = Decimal(-1)
        else:
            return terms


def _parse_hyper_part(cur: _Cursor, fn: str) -> tuple[Decimal, Decimal]:
    center = -cur.number() if cur.match("-") else cur.number()
    cur.expect("+", f"'+' before the {fn} term")
    scale = cur.number()
    cur.expect(f"*{fn}(\\t)")
    return center, scale


def _parse_plot(cur: _Cursor) -> Element:
    opts = _parse_options(cur)
    if cur.match("coordinates"):
        if opts != {"mark": "*"}:
            raise cur.error("point plots take exactly [mark=*]")
        cur.expect("{")
        point = _parse_point(cur)
        cur.expect("}")
        return point
    cur.expect("(", "a plot body")
    if cur.match("\\x"):
        lo, hi = _parse_domain(cur, opts)
        if set(opts) != {"domain"}:
            raise cur.error("function plots take exactly [domain=lo:hi]")
        cur.expect(",")
        cur.expect("{")
        terms = _parse_poly(cur)
        cur.expect("}")
        cur.expect(")")
        orders = [o for o, _ in terms]
        coefs = [c for _, c in terms]
        if orders == [2, 1, 0]:
            return Curve("parabola", (coefs[0], coefs[1], coefs[2], lo, hi))
        if orders == [1, 0]:
            return Curve("line", (coefs[0], coefs[1], lo, hi))
        raise cur.error("expected 'a*\\x*\\x + b*\\x + c' or 'm*\\x + b'")
    if opts.get("variable") != "\\t" or set(opts) != {"domain", "variable"}:
        raise cur.error("hyperbola plots take exactly [domain=lo:hi, variable=\\t]")
    lo, hi = _parse_domain(cur, opts)
    cur.expect("{")
    cx, a = _parse_hyper_part(cur, "cosh")
    cur.expect("}")
    cur.expect(",")
    cur.expect("{")
    cy, b = _parse_hyper_part(cur, "sinh")
    cur.expect("}")
    cur.expect(")")
    return Curve("hyperbola", (cx, cy, a, b, lo, hi))


def _parse_line(text: str, line_no: int) -> Element:
    cur = _Cursor(text, line_no)
    if not cur.match("\\draw"):
        raise cur.error("unknown command (expected \\draw)")
    try:
        if cur.match("plot"):
            element = _parse_plot(cur)
        else:
            p1 = _parse_point(cur)
            if cur.match("--"):
                p2 = _parse_point(cur)
                if cur.match("--"):
                    p3 = _parse_point(cur)
                    cur.expect("--", "'-- cycle'")
                    cur.expect("cycle")
                    element = Triangle(p1, p2, p3)
                else:
                    element = Segment(p1, p2)
            elif cur.match("circle"):
                cur.expect("(")
                r_pos = cur.pos
                radius = cur.number()
                cur.expect(")")
                if radius <= 0:
                    raise cur.error("circle radius must be positive", r_pos)
                element = Circle(p1, radius)
            elif cur.match("rectangle"):
                element = Rectangle(p1, _parse_point(cur))
            elif cur.match("ellipse"):
                cur.expect("(")
                ax_pos = cur.pos
                rx = cur.number()
                cur.expect("and")
                ry = cur.number()
                cur.expect(")")
                if rx <= 0 or ry <= 0:
                    raise cur.error("ellipse semi-axes must be positive", ax_pos)
                element = Curve("ellipse", (p1.x, p1.y, rx, ry))
            else:
                raise cur.error("expected '--', 'circle', 'rectangle' or 'ellipse'")
    except TikzParseError:
        raise
    except ValueError as exc:
        raise cur.error(str(exc)) from exc
    cur.expect(";", "';' terminating the command")
    if cur.peek():
        raise cur.error("unexpected text after ';'")
    return element


def parse_tikz_subset(source: str) -> GeomScene:
    """Parse emitted TikZ back into a scene; inverse of emit_tikz."""
    lines = source.split("\n")
    if lines[-1] == "":
        lines.pop()
    elements = []
    for line_no, text in enumerate(lines, start=1):
        if not text.strip(_Cursor.whitespace):
            raise TikzParseError(line_no, 1, "blank line inside drawing")
        elements.append(_parse_line(text, line_no))
    return GeomScene(tuple(elements))
