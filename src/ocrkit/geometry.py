"""Random geometric scenes with a round-trippable TikZ subset.

Scenes hold points, segments, circles, rectangles, triangles and function
curves (lines, parabolas, ellipses, hyperbolas) with coordinates stored as
exact decimals of at most two fraction digits. Emission produces one
``\\draw ...;`` command per element; the reader in ``ocrkit.tikz`` inverts
emission exactly, so ``parse_tikz_subset(emit_tikz(scene)) == scene`` for every
valid scene. The reader lives apart so that generating scenes does not load it.
"""

from __future__ import annotations

import random
from decimal import Decimal, InvalidOperation

from ._record import Record

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


def emit_tikz(scene: GeomScene) -> str:
    """One command line per element, in element order; empty scene -> empty text."""
    return "".join(_emit_element(el) + "\n" for el in scene.elements)


def wrap_document(source: str) -> str:
    """Embed the drawing in the documented standalone LaTeX wrapper."""
    return DOCUMENT_TEMPLATE % source


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
