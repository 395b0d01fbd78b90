"""Random geometric scenes with a round-trippable TikZ subset.

Scenes hold points, segments, circles, rectangles, triangles and function
curves (lines, parabolas, ellipses, hyperbolas) with coordinates stored as
exact decimals of at most two fraction digits. Emission produces one
``\\draw ...;`` command per element; the parser inverts emission exactly, so
``parse(emit(scene)) == scene`` for every valid scene.
"""

from __future__ import annotations

import random
import re
from decimal import Decimal, InvalidOperation

from ._record import Record
from ._scan import Scanner, TextParseError

MAX_FRACTION_DIGITS = 2

# params per kind: line (m, b, lo, hi); parabola (a, b, c, lo, hi);
# ellipse (cx, cy, rx, ry); hyperbola (cx, cy, a, b, lo, hi)
CURVE_ARITY = {"line": 4, "parabola": 5, "ellipse": 4, "hyperbola": 6}
CURVE_KINDS = tuple(CURVE_ARITY)

ALL_KINDS = ("point", "segment", "circle", "rectangle", "triangle", *CURVE_KINDS)

# Documented wrapper for external compilation (compilation itself is out of scope).
DOCUMENT_TEMPLATE = (
    "\\documentclass[tikz,border=2pt]{standalone}\n"
    "\\begin{document}\n"
    "\\begin{tikzpicture}\n"
    "%s"
    "\\end{tikzpicture}\n"
    "\\end{document}\n"
)


class TikzParseError(TextParseError):
    """Parse failure with 1-based line and column."""


def fmt_decimal(d: Decimal) -> str:
    """Plain decimal string with minimal digits (no exponent, no trailing zeros)."""
    s = format(d, "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def canon_decimal(value: Decimal | int | str | float) -> Decimal:
    """Canonical coordinate value: finite, at most two fraction digits."""
    try:
        d = Decimal(str(value)) if isinstance(value, float) else Decimal(value)
    except InvalidOperation as exc:
        raise ValueError(f"not a decimal number: {value!r}") from exc
    if not d.is_finite():
        raise ValueError(f"coordinate must be finite, got {value!r}")
    d = Decimal(fmt_decimal(d))
    if -d.as_tuple().exponent > MAX_FRACTION_DIGITS:
        raise ValueError(f"more than {MAX_FRACTION_DIGITS} fraction digits: {value}")
    return d


class Point(Record):
    __slots__ = ("x", "y")

    def __init__(self, x: Decimal, y: Decimal):
        super().__init__(canon_decimal(x), canon_decimal(y))


class Segment(Record):
    __slots__ = ("p1", "p2")

    def __init__(self, p1: Point, p2: Point):
        if p1 == p2:
            raise ValueError("segment endpoints must differ")
        super().__init__(p1, p2)


class Circle(Record):
    __slots__ = ("center", "radius")

    def __init__(self, center: Point, radius: Decimal):
        radius = canon_decimal(radius)
        if radius <= 0:
            raise ValueError(f"circle radius must be positive, got {radius}")
        super().__init__(center, radius)


class Rectangle(Record):
    __slots__ = ("corner1", "corner2")

    def __init__(self, corner1: Point, corner2: Point):
        if corner1.x == corner2.x or corner1.y == corner2.y:
            raise ValueError("rectangle corners must differ in both axes")
        super().__init__(corner1, corner2)


class Triangle(Record):
    __slots__ = ("p1", "p2", "p3")

    def __init__(self, p1: Point, p2: Point, p3: Point):
        # exact Decimal cross product, no float round-off
        cross = (p2.x - p1.x) * (p3.y - p1.y) - (p2.y - p1.y) * (p3.x - p1.x)
        if cross == 0:
            raise ValueError("triangle vertices are collinear")
        super().__init__(p1, p2, p3)


class Curve(Record):
    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple[Decimal, ...]):
        if kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {kind!r}")
        params = tuple(canon_decimal(p) for p in params)
        if len(params) != CURVE_ARITY[kind]:
            raise ValueError(
                f"{kind} curve takes {CURVE_ARITY[kind]} parameters, got {len(params)}"
            )
        if kind in ("ellipse", "hyperbola") and (params[2] <= 0 or params[3] <= 0):
            raise ValueError(f"{kind} semi-axes must be positive")
        if kind in ("line", "parabola", "hyperbola"):
            lo, hi = params[-2], params[-1]
            if lo >= hi:
                raise ValueError(f"plot domain must be increasing, got {lo}:{hi}")
        super().__init__(kind, params)


Element = Point | Segment | Circle | Rectangle | Triangle | Curve


class GeomScene(Record):
    __slots__ = ("elements",)

    def __init__(self, elements: tuple[Element, ...] = ()):
        elements = tuple(elements)
        for el in elements:
            if not isinstance(el, Element):
                raise ValueError(f"not a scene element: {el!r}")
        super().__init__(elements)


class TikzDoc(Record):
    __slots__ = ("source",)

    def __init__(self, source: str):
        super().__init__(source)


def _coord(p: Point) -> str:
    return f"({fmt_decimal(p.x)},{fmt_decimal(p.y)})"


def _fold(first: str, *rest: Decimal) -> str:
    """Join polynomial-style terms, folding signs: 'a*\\x - 1.5' not '+ -1.5'."""
    out = first
    for coef, suffix in rest:
        sign = "-" if coef < 0 else "+"
        out += f" {sign} {fmt_decimal(abs(coef))}{suffix}"
    return out


def _emit_element(el: Element) -> str:
    if isinstance(el, Point):
        return f"\\draw plot[mark=*] coordinates {{{_coord(el)}}};"
    if isinstance(el, Segment):
        return f"\\draw {_coord(el.p1)} -- {_coord(el.p2)};"
    if isinstance(el, Circle):
        return f"\\draw {_coord(el.center)} circle ({fmt_decimal(el.radius)});"
    if isinstance(el, Rectangle):
        return f"\\draw {_coord(el.corner1)} rectangle {_coord(el.corner2)};"
    if isinstance(el, Triangle):
        return f"\\draw {_coord(el.p1)} -- {_coord(el.p2)} -- {_coord(el.p3)} -- cycle;"
    # a Curve: GeomScene admits nothing but the six element classes
    f = fmt_decimal
    if el.kind == "line":
        m, b, lo, hi = el.params
        expr = _fold(f"{f(m)}*\\x", (b, ""))
        return f"\\draw plot[domain={f(lo)}:{f(hi)}] (\\x, {{{expr}}});"
    if el.kind == "parabola":
        a, b, c, lo, hi = el.params
        expr = _fold(f"{f(a)}*\\x*\\x", (b, "*\\x"), (c, ""))
        return f"\\draw plot[domain={f(lo)}:{f(hi)}] (\\x, {{{expr}}});"
    if el.kind == "ellipse":
        cx, cy, rx, ry = el.params
        return f"\\draw ({f(cx)},{f(cy)}) ellipse ({f(rx)} and {f(ry)});"
    cx, cy, a, b, lo, hi = el.params
    return (
        f"\\draw plot[domain={f(lo)}:{f(hi)}, variable=\\t] "
        f"({{{f(cx)} + {f(a)}*cosh(\\t)}}, {{{f(cy)} + {f(b)}*sinh(\\t)}});"
    )


def emit_tikz(scene: GeomScene) -> TikzDoc:
    """One command line per element, in element order; empty scene -> empty text."""
    lines = [_emit_element(el) for el in scene.elements]
    return TikzDoc("".join(line + "\n" for line in lines))


_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


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
        item = cur.text[cur.pos : stop].strip()
        if "=" not in item:
            raise cur.error(f"malformed option {item!r}")
        key, value = item.split("=", 1)
        opts[key.strip()] = value.strip()
        cur.pos = stop + 1
        if stop == end:
            return opts


def _parse_domain(cur: _Cursor, opts: dict[str, str]) -> tuple[Decimal, Decimal]:
    if "domain" not in opts:
        raise cur.error("plot requires a domain=lo:hi option")
    lo_s, sep, hi_s = opts["domain"].partition(":")
    if not sep:
        raise cur.error(f"malformed domain {opts['domain']!r}")
    try:
        return canon_decimal(lo_s.strip()), canon_decimal(hi_s.strip())
    except ValueError as exc:
        raise cur.error(str(exc)) from exc


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


def parse_tikz_subset(doc: TikzDoc | str) -> GeomScene:
    """Parse emitted TikZ back into a scene; inverse of emit_tikz."""
    source = doc.source if isinstance(doc, TikzDoc) else doc
    lines = source.split("\n")
    if lines[-1] == "":
        lines.pop()
    return parse_tikz_lines(lines)


def parse_tikz_lines(lines: list[str]) -> GeomScene:
    """Parse TikZ given as its lines, without their line ends; line 1 is ``lines[0]``."""
    elements = []
    for line_no, text in enumerate(lines, start=1):
        if not text.strip():
            raise TikzParseError(line_no, 1, "blank line inside drawing")
        elements.append(_parse_line(text, line_no))
    return GeomScene(tuple(elements))


def wrap_document(doc: TikzDoc) -> str:
    """Embed the drawing in the documented standalone LaTeX wrapper."""
    return DOCUMENT_TEMPLATE % doc.source


class SceneConfig(Record):
    __slots__ = ("n_elements", "bounds", "kinds")

    def __init__(
        self,
        n_elements: tuple[int, int] = (1, 6),
        bounds: tuple[int, int] = (-10, 10),
        kinds: tuple[str, ...] = ALL_KINDS,
    ):
        if not kinds:
            raise ValueError("kinds must be non-empty")
        unknown = set(kinds) - set(ALL_KINDS)
        if unknown:
            raise ValueError(f"unknown kinds: {', '.join(map(repr, sorted(unknown)))}")
        if n_elements[0] < 1 or n_elements[0] > n_elements[1]:
            raise ValueError(f"bad n_elements range {n_elements}")
        if bounds[0] >= bounds[1]:
            raise ValueError(f"bad coordinate bounds {bounds}")
        super().__init__(n_elements, bounds, kinds)


def _hundredths(rng: random.Random, lo: int, hi: int) -> Decimal:
    # Point and Curve canonicalize every value they store, so this need not
    return Decimal(rng.randint(lo * 100, hi * 100)) / 100


# kind -> (shape, points per draw, what to report when no draw is accepted)
_REDRAWN = {
    "segment": (Segment, 2, "distinct segment endpoints"),
    "rectangle": (Rectangle, 2, "distinct rectangle corners"),
    "triangle": (Triangle, 3, "a non-degenerate triangle"),
}


class _SceneBuilder:
    def __init__(self, rng: random.Random, config: SceneConfig):
        self.rng = rng
        self.config = config
        self.pool: list[Point] = []

    def coord(self) -> Decimal:
        return _hundredths(self.rng, *self.config.bounds)

    def positive(self) -> Decimal:
        return Decimal(self.rng.randint(25, 300)) / 100

    def point(self, fresh: bool = False) -> Point:
        if not fresh and self.pool and self.rng.random() < 0.5:
            return self.rng.choice(self.pool)
        p = Point(self.coord(), self.coord())
        self.pool.append(p)
        return p

    def domain(self) -> tuple[Decimal, Decimal]:
        while True:
            lo, hi = sorted((self.coord(), self.coord()))
            if lo < hi:
                return lo, hi

    def build(self, kind: str) -> Element:
        if kind == "point":
            return self.point()
        if kind == "circle":
            return Circle(self.point(), self.positive())
        if kind in _REDRAWN:
            shape, n_points, what = _REDRAWN[kind]
            for attempt in range(100):
                points = [self.point(attempt > 20) for _ in range(n_points)]
                try:
                    return shape(*points)
                except ValueError:  # the shape rejects a degenerate draw
                    continue
            raise RuntimeError(f"could not draw {what}")
        if kind == "line":
            slope = _hundredths(self.rng, -3, 3)
            lo, hi = self.domain()
            return Curve("line", (slope, self.coord(), lo, hi))
        if kind == "parabola":
            while True:
                a = _hundredths(self.rng, -3, 3)
                if a != 0:
                    break
            lo, hi = self.domain()
            return Curve("parabola", (a, self.coord(), self.coord(), lo, hi))
        if kind == "ellipse":
            center = self.point()
            return Curve("ellipse", (center.x, center.y, self.positive(), self.positive()))
        center = self.point()
        lo, hi = _hundredths(self.rng, -2, 0), _hundredths(self.rng, 0, 2)
        if lo == hi:  # both 0
            hi += Decimal("0.5")
        return Curve("hyperbola", (center.x, center.y, self.positive(), self.positive(), lo, hi))


def gen_scene(seed: int, config: SceneConfig = SceneConfig()) -> GeomScene:
    """Deterministic random scene; every element satisfies its invariants."""
    rng = random.Random(seed)
    builder = _SceneBuilder(rng, config)
    count = rng.randint(*config.n_elements)
    elements = tuple(builder.build(rng.choice(config.kinds)) for _ in range(count))
    return GeomScene(elements)
