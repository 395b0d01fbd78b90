"""Geometry scene generation, TikZ emission and parsing."""

import random
from decimal import Decimal

import pytest

from ocrkit.geometry import (
    ALL_KINDS,
    Circle,
    Curve,
    GeomScene,
    Point,
    Rectangle,
    SceneConfig,
    Segment,
    Triangle,
    canon_decimal,
    emit_tikz,
    fmt_decimal,
    gen_scene,
    wrap_document,
)
from ocrkit.geometry import _SceneBuilder
from ocrkit.tikz import TikzParseError, parse_tikz_subset


def test_decimal_canonicalization():
    assert fmt_decimal(canon_decimal("2.50")) == "2.5"
    assert fmt_decimal(canon_decimal("-0.00")) == "0"
    assert fmt_decimal(canon_decimal(100)) == "100"
    assert canon_decimal("2") == canon_decimal("2.0")
    with pytest.raises(ValueError):
        canon_decimal("1.234")
    with pytest.raises(ValueError):
        canon_decimal("nan")


def test_element_invariants():
    with pytest.raises(ValueError):
        Circle(Point(0, 0), Decimal("-1"))
    with pytest.raises(ValueError):
        Rectangle(Point(0, 0), Point(0, 5))
    with pytest.raises(ValueError):
        Triangle(Point(0, 0), Point(1, 1), Point(2, 2))
    with pytest.raises(ValueError):
        Curve("ellipse", ("0", "0", "-1", "2"))
    with pytest.raises(ValueError):
        Curve("line", ("1", "0", "5", "2"))  # domain must increase
    with pytest.raises(ValueError):
        Curve("spiral", ("1",))


@pytest.mark.parametrize("kind, params", [
    ("ellipse", ("0", "0", "{a}", "{b}")),
    ("hyperbola", ("0", "0", "{a}", "{b}", "-1", "1")),
])
@pytest.mark.parametrize("a, b", [("0", "1"), ("1", "-2")])
def test_curve_semi_axes_must_be_positive(kind, params, a, b):
    with pytest.raises(ValueError) as exc:
        Curve(kind, tuple(p.format(a=a, b=b) for p in params))
    assert str(exc.value) == f"{kind} semi-axes must be positive"


def test_emit_templates():
    assert emit_tikz(GeomScene((Circle(Point(0, 0), Decimal(2)),))) == (
        "\\draw (0,0) circle (2);\n"
    )
    assert emit_tikz(GeomScene((Triangle(Point(0, 0), Point(1, 0), Point(0, 1)),))) == (
        "\\draw (0,0) -- (1,0) -- (0,1) -- cycle;\n"
    )
    assert emit_tikz(GeomScene((Segment(Point(0, 0), Point("1.5", "-2")),))) == (
        "\\draw (0,0) -- (1.5,-2);\n"
    )
    assert emit_tikz(GeomScene((Point("0.25", "-3"),))) == (
        "\\draw plot[mark=*] coordinates {(0.25,-3)};\n"
    )
    assert emit_tikz(GeomScene((Rectangle(Point(0, 0), Point(2, 3)),))) == (
        "\\draw (0,0) rectangle (2,3);\n"
    )


def test_emit_curve_templates_with_sign_folding():
    line = Curve("line", ("-0.5", "-2", "0", "4"))
    assert emit_tikz(GeomScene((line,))) == (
        "\\draw plot[domain=0:4] (\\x, {-0.5*\\x - 2});\n"
    )
    parabola = Curve("parabola", ("1.25", "-3", "0.75", "-1", "2"))
    assert emit_tikz(GeomScene((parabola,))) == (
        "\\draw plot[domain=-1:2] (\\x, {1.25*\\x*\\x - 3*\\x + 0.75});\n"
    )
    ellipse = Curve("ellipse", ("1", "-2", "3", "0.5"))
    assert emit_tikz(GeomScene((ellipse,))) == (
        "\\draw (1,-2) ellipse (3 and 0.5);\n"
    )
    hyperbola = Curve("hyperbola", ("-1.5", "2", "1", "0.75", "-2", "2"))
    assert emit_tikz(GeomScene((hyperbola,))) == (
        "\\draw plot[domain=-2:2, variable=\\t] "
        "({-1.5 + 1*cosh(\\t)}, {2 + 0.75*sinh(\\t)});\n"
    )


def test_empty_scene_empty_document():
    assert emit_tikz(GeomScene()) == ""
    assert parse_tikz_subset("") == GeomScene()


def test_parse_rejects_unknown_command_at_start():
    with pytest.raises(TikzParseError) as exc:
        parse_tikz_subset("\\drow (0,0) circle (1);\n")
    assert (exc.value.line, exc.value.column) == (1, 1)


def test_parse_rejects_negative_radius():
    with pytest.raises(TikzParseError, match="radius"):
        parse_tikz_subset("\\draw (0,0) circle (-1);\n")


def test_parse_rejects_missing_semicolon():
    with pytest.raises(TikzParseError, match=";"):
        parse_tikz_subset("\\draw (0,0) circle (1)\n")


def test_parse_rejects_trailing_garbage_and_blank_lines():
    with pytest.raises(TikzParseError):
        parse_tikz_subset("\\draw (0,0) circle (1); extra\n")
    with pytest.raises(TikzParseError, match="blank"):
        parse_tikz_subset("\\draw (0,0) circle (1);\n\n\\draw (0,0) circle (1);\n")


def test_parse_rejects_overlong_decimals():
    with pytest.raises(TikzParseError, match="fraction digits"):
        parse_tikz_subset("\\draw (0.123,0) circle (1);\n")


def test_parse_error_positions_are_reported():
    try:
        parse_tikz_subset("\\draw (0,0) -- (zz);\n")
    except TikzParseError as exc:
        assert exc.line == 1
        assert exc.column == 17
    else:
        pytest.fail("expected a parse error")


def test_parse_head_mutations_rejected():
    base = "\\draw (0,0) circle (1);"
    for i in range(len("\\draw")):
        mutated = base[:i] + base[i + 1 :]
        with pytest.raises(TikzParseError):
            parse_tikz_subset(mutated + "\n")


@pytest.mark.parametrize(
    "source, where",
    [
        # CR is no TikZ whitespace
        ("\\draw (0,0) circle (1);\r\n", "1:24: unexpected text after ';'"),
        ("\\draw (0,0) circle (1);\n\\draw (0,0) -- (1,x);\n", "2:19: expected a number"),
        # a canon_decimal error points at the number's start
        ("\\draw (0,0) circle (0.125);\n", "1:21: more than 2 fraction digits: 0.125"),
        ("\\draw plot (\\x, {1*\\x + 0});\n", "1:15: plot requires a domain=lo:hi option"),
        ("\\draw plot[domain=0:1 (\\x, {1*\\x + 0});\n", "1:12: unterminated option list"),
        ("\\draw plot[domain] (\\x, {1*\\x + 0});\n", "1:12: malformed option 'domain'"),
        ("\\draw plot[domain=0] (\\x, {1*\\x + 0});\n", "1:25: malformed domain '0'"),
        # inside a TikZ line only spaces and tabs are whitespace, in an option list too
        ("\\draw plot[domain=0\r:1] (\\x, {1*\\x + 2});", "1:28: not a decimal number: '0\\r'"),
        # an option key stands once in a list; the error points at its second use
        (
            "\\draw plot[domain=0:1, domain=2:3] (\\x, {1*\\x + 2});",
            "1:24: repeated option 'domain'",
        ),
        ("\\draw plot[mark=*, mark=*] coordinates {(0,0)};", "1:20: repeated option 'mark'"),
        (
            "\\draw plot[domain=0:1, variable=\\t,\t variable =\\t] "
            "({0 + 1*cosh(\\t)}, {0 + 1*sinh(\\t)});",
            "1:38: repeated option 'variable'",
        ),
        (
            "\\draw plot[\x0bdomain=\u30000:1\x85] (\\x, {1*\\x + 2});",
            "1:30: plot requires a domain=lo:hi option",
        ),
        (
            "\\draw plot[domain=0:0.125] (\\x, {1*\\x + 0});\n",
            "1:31: more than 2 fraction digits: 0.125",
        ),
        ("\\draw plot[mark=o] coordinates {(0,0)};\n", "1:31: point plots take exactly [mark=*]"),
        (
            "\\draw plot[domain=0:1, samples=5] (\\x, {1*\\x + 0});\n",
            "1:38: function plots take exactly [domain=lo:hi]",
        ),
        (
            "\\draw plot[domain=0:1] (\\x, {1*\\x*\\x});\n",
            "1:39: expected 'a*\\x*\\x + b*\\x + c' or 'm*\\x + b'",
        ),
        (
            "\\draw plot[domain=0:1] ({0 + 1*cosh(\\t)}, {0 + 1*sinh(\\t)});\n",
            "1:25: hyperbola plots take exactly [domain=lo:hi, variable=\\t]",
        ),
        ("\\draw (0,0) ellipse (0 and 1);\n", "1:22: ellipse semi-axes must be positive"),
        (
            "\\draw (0,0) square (1,1);\n",
            "1:13: expected '--', 'circle', 'rectangle' or 'ellipse'",
        ),
        # an element's own check reports where the element's text ends
        ("\\draw (0,0) -- (0,0);\n", "1:21: segment endpoints must differ"),
        ("\\draw (0,0) rectangle (0,5);\n", "1:28: rectangle corners must differ in both axes"),
        ("\\draw (0,0) -- (1,1) -- (2,2) -- cycle;\n", "1:39: triangle vertices are collinear"),
        (
            "\\draw plot[domain=1:0] (\\x, {1*\\x + 0});\n",
            "1:40: plot domain must be increasing, got 1:0",
        ),
        # in a plot body the number after a sign token is unsigned
        ("\\draw plot[domain=0:1] (\\x, {1*\\x - -2});", "1:37: expected a number"),
        ("\\draw plot[domain=0:1] (\\x, {1*\\x + -2});", "1:37: expected a number"),
        ("\\draw plot[domain=0:1] (\\x, {--1*\\x + 2});", "1:31: expected a number"),
        (
            "\\draw plot[domain=0:1, variable=\\t] ({--1 + 1*cosh(\\t)}, {0 + 1*sinh(\\t)});",
            "1:40: expected a number",
        ),
        (
            "\\draw plot[domain=0:1, variable=\\t] ({0 + -1*cosh(\\t)}, {0 + 1*sinh(\\t)});",
            "1:43: expected a number",
        ),
    ],
    ids=[
        "cr-after-semicolon", "number-on-line-2", "fraction-digits", "no-options",
        "unterminated-options", "malformed-option", "malformed-domain", "domain-cr",
        "repeated-domain", "repeated-mark", "repeated-variable",
        "option-unicode-spaces", "domain-digits",
        "point-options", "function-options", "polynomial-terms", "hyperbola-options",
        "ellipse-axes", "unknown-shape",
        "zero-length-segment", "degenerate-rectangle", "collinear-triangle", "decreasing-domain",
        "minus-minus-term", "plus-minus-term", "minus-minus-first-term", "minus-minus-center",
        "plus-minus-scale",
    ],
)
def test_parse_error_position_and_message(source, where):
    with pytest.raises(TikzParseError) as exc:
        parse_tikz_subset(source)
    assert str(exc.value) == where
    assert f"{exc.value.line}:{exc.value.column}: {exc.value.message}" == where
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize(
    "source, where",
    [
        ("\\draw (\u0663,0) circle (\uff11);\n", "1:8: expected a number"),
        ("\\draw (3,0) circle (\uff11);\n", "1:21: expected a number"),
        ("\\draw (1,2) -- (3,\u0664);\n", "1:19: expected a number"),
        ("\\draw (1\u0663,2) circle (1);\n", "1:9: expected ','"),
        # a domain bound is one number too, though Decimal would read it
        ("\\draw plot[domain=\u0663:4] (\\x, {1*\\x + 2});\n",
         "1:27: not a decimal number: '\u0663'"),
        ("\\draw plot[domain=0:\uff11\uff12] (\\x, {1*\\x + 2});\n",
         "1:28: not a decimal number: '\uff11\uff12'"),
    ],
    ids=["arabic-indic-and-full-width", "full-width-radius", "arabic-indic-in-a-segment",
         "digit-after-a-digit", "domain-arabic-indic", "domain-full-width"],
)
def test_parse_reads_ascii_digits_only(source, where):
    with pytest.raises(TikzParseError) as exc:
        parse_tikz_subset(source)
    assert str(exc.value) == where


@pytest.mark.parametrize(
    "bound, column",
    [("1e1", 30), (".5", 29), ("-.7", 30), ("2.", 29), ("+1", 29), ("1_0", 30)],
    ids=["exponent", "no-integer-part", "negative-no-integer-part", "no-fraction-digits",
         "plus-sign", "underscore"],
)
def test_domain_bounds_are_numbers_of_the_subset(bound, column):
    # every form Decimal reads but emit_tikz never writes, as every other number refuses it
    with pytest.raises(TikzParseError) as exc:
        parse_tikz_subset(f"\\draw plot[domain={bound}:20] (\\x, {{1*\\x + 2}});\n")
    assert str(exc.value) == f"1:{column}: not a decimal number: {bound!r}"
    with pytest.raises(TikzParseError):
        parse_tikz_subset(f"\\draw ({bound},0) circle (1);\n")


_LINE = Curve("line", (Decimal(1), Decimal(2), Decimal(0), Decimal(1)))
_NEGATED_LINE = Curve("line", (Decimal(-1), Decimal(2), Decimal(0), Decimal(1)))


@pytest.mark.parametrize(
    "source, answer",
    [
        ("\\draw plot[domain=0:1] (\\x, {1 * \\x + 2});", "1:32: expected '}'"),
        ("\\draw (0,0) - - (1,1);", "1:13: expected '--', 'circle', 'rectangle' or 'ellipse'"),
        ("\\draw plot[domain=-1:1, variable=\\t] ({0 + 1* cosh(\\t)}, {0 + 1*sinh(\\t)});",
         "1:45: expected '*cosh(\\\\t)'"),
        ("\\draw plot[domain=0:1] (\\x, {1*\\x + 2});", _LINE),
        ("\\draw ( 0 , 0 )  circle  ( 1 ) ;", Circle(Point(0, 0), Decimal(1))),
        ("\\draw plot[ domain = 0:1 ] (\\x, {1*\\x + 2});", _LINE),
        ("\\draw(0,0)--(1,1);", Segment(Point(0, 0), Point(1, 1))),
        ("\\draw plot[domain=0:1] (\\x, {-1*\\x + 2});", _NEGATED_LINE),
        ("\\draw plot[domain=0:1] (\\x, {- 1*\\x + 2});", _NEGATED_LINE),
    ],
    ids=["space-inside-times-x", "space-inside-dashes", "space-inside-times-cosh",
         "spaces-around-plus", "spaces-before-every-token", "spaces-in-options", "no-spaces",
         "sign-then-number", "space-after-sign"],
)
def test_whitespace_may_stand_before_a_token_but_not_inside_one(source, answer):
    # the rule README states; an element is a line that reads, a str the error of one that does not
    if isinstance(answer, str):
        with pytest.raises(TikzParseError) as exc:
            parse_tikz_subset(source)
        assert str(exc.value) == answer
    else:
        assert parse_tikz_subset(source) == GeomScene((answer,))


def test_round_trip_examples():
    for seed in (0, 7, 123, 999):
        scene = gen_scene(seed)
        assert parse_tikz_subset(emit_tikz(scene)) == scene


def test_round_trip_each_kind():
    for kind in ALL_KINDS:
        config = SceneConfig(n_elements=(3, 3), kinds=(kind,))
        for seed in range(40):
            scene = gen_scene(seed, config)
            assert parse_tikz_subset(emit_tikz(scene)) == scene, (kind, seed)


def test_gen_scene_deterministic():
    assert gen_scene(41) == gen_scene(41)
    assert gen_scene(41) != gen_scene(42)


def test_gen_scene_single_circle_config():
    scene = gen_scene(3, SceneConfig(n_elements=(1, 1), kinds=("circle",)))
    assert len(scene.elements) == 1
    circle = scene.elements[0]
    assert isinstance(circle, Circle)
    assert circle.radius > 0


def test_gen_scene_coordinates_within_bounds():
    config = SceneConfig(bounds=(-5, 5))
    for seed in range(100):
        for el in gen_scene(seed, config).elements:
            if isinstance(el, Point):
                assert -5 <= el.x <= 5 and -5 <= el.y <= 5


def test_gen_scene_rejects_empty_kinds():
    with pytest.raises(ValueError):
        SceneConfig(kinds=())


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: canon_decimal("1e"), "not a decimal number: '1e'"),
        (lambda: Curve("line", ("1", "2", "3")), "line curve takes 4 parameters, got 3"),
        (lambda: GeomScene((Point(0, 0), "x")), "not a scene element: 'x'"),
        (lambda: SceneConfig(n_elements=(0, 3)), "bad n_elements range (0, 3)"),
        (lambda: SceneConfig(n_elements=(3, 2)), "bad n_elements range (3, 2)"),
        (lambda: SceneConfig(bounds=(1, 1)), "bad coordinate bounds (1, 1)"),
    ],
    ids=["decimal", "curve-arity", "scene-element", "no-elements", "elements-range", "bounds"],
)
def test_constructor_errors(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


class _OneValueRng(random.Random):
    """Every coordinate drawn is the low bound, so every point is the same."""

    def randint(self, a, b):
        return a


@pytest.mark.parametrize(
    "kind, message",
    [
        ("segment", "could not draw distinct segment endpoints"),
        ("rectangle", "could not draw distinct rectangle corners"),
        ("triangle", "could not draw a non-degenerate triangle"),
    ],
)
def test_scene_builder_gives_up_after_100_draws(kind, message):
    with pytest.raises(RuntimeError) as exc:
        _SceneBuilder(_OneValueRng(0), SceneConfig()).build(kind)
    assert str(exc.value) == message


def test_hyperbola_domain_drawn_empty_is_widened():
    # this seed draws lo = hi = 0 for the only hyperbola
    scene = gen_scene(43871, SceneConfig(n_elements=(1, 1), kinds=("hyperbola",)))
    assert scene.elements[0].params[-2:] == (Decimal(0), Decimal("0.5"))
    assert emit_tikz(scene).startswith("\\draw plot[domain=0:0.5, variable=\\t] ")
    assert parse_tikz_subset(emit_tikz(scene)) == scene


def test_emit_injective_on_sample():
    seen = {}
    for seed in range(300):
        scene = gen_scene(seed)
        text = emit_tikz(scene)
        if text in seen:
            assert seen[text] == scene
        else:
            seen[text] = scene


def test_combined_scenes_share_points():
    config = SceneConfig(n_elements=(6, 6), kinds=("segment", "triangle"))
    shared = False
    for seed in range(50):
        scene = gen_scene(seed, config)
        points = []
        for el in scene.elements:
            points.extend(
                [el.p1, el.p2] if isinstance(el, Segment) else [el.p1, el.p2, el.p3]
            )
        if len(points) != len(set(points)):
            shared = True
            break
    assert shared


def test_wrap_document_contains_source():
    source = emit_tikz(gen_scene(1))
    wrapped = wrap_document(source)
    assert source in wrapped
    assert wrapped.startswith("\\documentclass")
